// Command perfbench is the repository's end-to-end benchmark: it starts an
// in-process streamd daemon, drives it over loopback TCP through
// streamd/client with a stream generated from --seed, checks every reply,
// and prints one JSON result line last.
//
//	go run . --workload trend-8shard --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures what a user of the daemon sees: set-up time, closed-
// loop throughput and batch latency, open-loop latency at a fixed offered
// rate, join quality and peak heap. --trace 1 is a separate run that
// breaks the batch down by layer (see layers.go) and reports the cost of
// that tracing as traced versus untraced throughput.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// loadRounds is how many closed-loop/open-loop slice pairs an untraced
// run alternates through.
const loadRounds = 10

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "seconds of load per run")
	trace := flag.Int("trace", 0, "1 runs the per-layer trace instead of the end-to-end measurement")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>; workloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 1 {
		res, err = traced(w, *seed, dur)
	} else {
		res, err = endToEnd(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// streamSteps sizes the generated stream per session.
func streamSteps(w *workload, dur time.Duration) int {
	return w.quality + w.batch*64 + int(float64(w.maxStepsPerSec)*(dur+warmupLoad(dur)).Seconds())
}

// endToEnd is the untraced run. It starts w.qualityRuns daemons in turn,
// each on its own stream: setup_s is the median of their set-up times and
// pairs_per_kstep pools their quality prefixes. The last daemon then serves
// the load phases, during which the heap is sampled.
func endToEnd(w *workload, seed uint64, dur time.Duration) (*result, error) {
	var setups []float64
	var b *bench
	pairs := 0
	for k := 0; k < w.qualityRuns; k++ {
		if b != nil {
			b.close()
		}
		runtime.GC() // each set-up starts from a collected heap
		t0 := time.Now()
		var err error
		if b, err = start(w, streamSeed(seed, k), streamSteps(w, dur)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		p, err := b.quality()
		if err != nil {
			b.close()
			return nil, err
		}
		pairs += p
	}
	// An untimed closed loop first, so the daemon's heap, buffers and
	// connections reach their steady size: the first seconds of load ran
	// ~10% slower than the rest.
	b.closedLoop(warmupLoad(dur), false)
	// The load alternates closed- and open-loop slices, so each metric
	// samples the whole run rather than one stretch of a shared host.
	hp := startHeapPeak()
	var closed, open loopResult
	for i := 0; i < loadRounds; i++ {
		closed.add(b.closedLoop(dur*6/10/loadRounds, false))
		open.add(b.openLoop(dur*4/10/loadRounds, w.olRate))
	}
	peak := hp.end()
	shed, finErr := b.finish()
	b.close()
	if err := b.loadErr(); err != nil {
		return nil, err
	}
	attempted := b.stepsSent() / w.batch
	failed := b.chk.failed + int(shed)
	if finErr != nil {
		failed++
	}
	fmt.Printf("# %s seed %d: %d daemons, warm-up %d steps, last daemon %d batches (%d failed, failed_frac %.4g), %d shed\n",
		w.name, seed, w.qualityRuns, b.warmSteps, attempted, failed, float64(failed)/float64(attempted), shed)
	fmt.Printf("# closed loop: %d sessions, %d batches of %d steps in %.2fs (%.0f tuples/s overall, %d windows of %.0f..%.0f); tail = p%g\n",
		w.sessions, len(closed.rtts), w.batch, closed.elapsed.Seconds(), closed.tuplesPerSec(),
		len(closed.rates), quantile(closed.rates, 0), quantile(closed.rates, 1), 100*tailQ(len(closed.rtts)))
	fmt.Printf("# open loop: %.0f tuples/s offered, %.0f achieved, %d batches; tail = p%g; generator late p50 %.3f ms, max %.3f ms\n",
		w.olRate, open.tuplesPerSec(), len(open.rtts), 100*tailQ(len(open.rtts)), median(open.lateMs), quantile(open.lateMs, 1))
	correct := b.report(finErr)
	m := map[string]metric{
		"setup_s":         {median(setups), "s"},
		"tuples_per_s":    {median(closed.rates), "tuples/s"},
		"batch_p50_ms":    {quantile(closed.rtts, 0.5), "ms"},
		"batch_p99_ms":    {quantile(closed.rtts, tailQ(len(closed.rtts))), "ms"},
		"ol_p50_ms":       {quantile(open.rtts, 0.5), "ms"},
		"ol_p99_ms":       {quantile(open.rtts, tailQ(len(open.rtts))), "ms"},
		"pairs_per_kstep": {float64(pairs) * 1000 / float64(w.qualityRuns*w.quality), "pairs/kstep"},
		"peak_heap_mb":    {peak, "MiB"},
	}
	return &result{Correct: correct && failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// warmupLoad is the untimed closed loop that precedes the measured load.
func warmupLoad(dur time.Duration) time.Duration { return max(time.Second, dur/10) }

// loadErr turns a load phase cut short into an error: a failed ingest or a
// stream too short for the run.
func (b *bench) loadErr() error {
	if b.ingestErr != nil {
		return fmt.Errorf("ingest failed: %w", b.ingestErr)
	}
	for _, idx := range b.next {
		if (idx+1)*b.w.batch > b.st.n {
			return fmt.Errorf("the generated stream (%d steps per session) ran out; raise maxStepsPerSec", b.st.n)
		}
	}
	return nil
}

// report prints the correctness verdict and returns it.
func (b *bench) report(finErr error) bool {
	ok := true
	if b.chk.firstErr != nil {
		fmt.Printf("# CHECK FAILED: %v (%d batches)\n", b.chk.firstErr, b.chk.failed)
		ok = false
	}
	if finErr != nil {
		fmt.Printf("# CHECK FAILED: %v\n", finErr)
		ok = false
	}
	return ok
}

// traced is the per-layer run. It alternates untraced and traced slices
// of the closed loop (so drift over the run hits both alike), then replays
// the run below the daemon layer by layer.
func traced(w *workload, seed uint64, dur time.Duration) (*result, error) {
	runtime.GC()
	b, err := start(w, streamSeed(seed, w.qualityRuns-1), streamSteps(w, dur))
	if err != nil {
		return nil, err
	}
	if _, err := b.quality(); err != nil {
		b.close()
		return nil, err
	}
	const slices = 6
	var plain, tr loopResult
	var engNs float64
	var engN int64
	for i := 0; i < slices; i++ {
		slice := dur * 6 / 10 / slices
		if i%2 == 0 {
			r := b.closedLoop(slice, false)
			plain.add(r)
			continue
		}
		h0, err := histogram(b.srv.Registry().Snapshot(), "streamd_batch_latency_ns")
		if err != nil {
			b.close()
			return nil, err
		}
		r := b.closedLoop(slice, true)
		h1, err := histogram(b.srv.Registry().Snapshot(), "streamd_batch_latency_ns")
		if err != nil {
			b.close()
			return nil, err
		}
		engNs += h1.Sum - h0.Sum
		engN += h1.Count - h0.Count
		tr.add(r)
	}
	shed, finErr := b.finish()
	b.close()
	if err := b.loadErr(); err != nil {
		return nil, err
	}
	order, err := b.chk.order(b.batchesSent())
	if err != nil {
		return nil, fmt.Errorf("batch order: %w", err)
	}
	if w.baseline > b.warmSteps+w.quality {
		return nil, fmt.Errorf("baseline prefix %d is longer than the one-session prefix %d", w.baseline, b.warmSteps+w.quality)
	}
	rep, rt, err := replay(b, order)
	if err != nil {
		return nil, err
	}
	L := rep.layers
	if w.heeb() {
		coreKernel(b, order, rt, L)
	} else {
		for _, n := range []string{"core.forecast_us", "core.joinh_ns_per_cand", "core.horizon_terms", "core.support_share"} {
			L[n] = 0 // RAND never runs the HEEB kernel
		}
	}
	rt.Shutdown()
	pairs1, ms1, err := baseline(b, order)
	if err != nil {
		return nil, err
	}
	L["shardrt.pairs_vs_1shard"] = float64(rep.prefixPair) / float64(pairs1)
	L["shardrt.speedup_vs_1shard"] = ms1 / rep.prefixMs
	engMs := engNs / float64(engN) / 1e6
	L["streamd.engine_ms"] = engMs
	L["streamd.outside_ms"] = mean(tr.rtts) - engMs
	L["streamd.shed_total"] = float64(shed)
	L["trace.untraced_tuples_per_s"] = plain.tuplesPerSec()
	L["trace.traced_tuples_per_s"] = tr.tuplesPerSec()
	L["trace.overhead_pct"] = 100 * (1 - tr.tuplesPerSec()/plain.tuplesPerSec())

	attempted := b.stepsSent() / w.batch
	failed := b.chk.failed + int(shed) + rep.mismatches
	if finErr != nil {
		failed++
	}
	fmt.Printf("# %s seed %d traced: %d batches, %d replay mismatches of %d digests, baseline prefix %d steps (%d pairs on %d shards, %d on 1)\n",
		w.name, seed, attempted, rep.mismatches, len(b.chk.digests), w.baseline, rep.prefixPair, w.shards, pairs1)
	if rep.mismatches > 0 {
		fmt.Printf("# CHECK FAILED: %d daemon replies differ from the direct shardrt replay\n", rep.mismatches)
	}
	correct := b.report(finErr) && rep.mismatches == 0
	units := map[string]string{}
	for _, pl := range perLayerUnits {
		units[pl[0]] = pl[1]
	}
	m := map[string]metric{}
	for n, v := range L {
		u, ok := units[n]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %q has no unit", n)
		}
		m[n] = metric{v, u}
	}
	if len(m) != len(perLayerUnits) {
		return nil, fmt.Errorf("traced run produced %d per-layer metrics, want %d", len(m), len(perLayerUnits))
	}
	return &result{Correct: correct && failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// perLayerUnits lists every per-layer metric with its unit, in the order
// BENCHMARK.json gives them.
var perLayerUnits = [][2]string{
	{"streamd.engine_ms", "ms"},
	{"streamd.outside_ms", "ms"},
	{"streamd.shed_total", "count"},
	{"wire.ingest_bytes", "B"},
	{"wire.results_bytes", "B"},
	{"wire.ingest_decode_us", "us"},
	{"wire.results_encode_us", "us"},
	{"wire.results_decode_us", "us"},
	{"shardrt.ingest_p50_ms", "ms"},
	{"shardrt.ingest_p99_ms", "ms"},
	{"shardrt.shard_busy_max_ms", "ms"},
	{"shardrt.shard_busy_sum_ms", "ms"},
	{"shardrt.step_skew", "ratio"},
	{"shardrt.carry_steps", "steps"},
	{"shardrt.checkpoint_ms", "ms"},
	{"shardrt.checkpoint_kb", "KiB"},
	{"shardrt.pairs_vs_1shard", "ratio"},
	{"shardrt.speedup_vs_1shard", "ratio"},
	{"engine.step_us", "us"},
	{"engine.self_us", "us"},
	{"engine.evictions_per_kstep", "1/kstep"},
	{"engine.expired_per_kstep", "1/kstep"},
	{"policy.evict_us_p50", "us"},
	{"policy.evict_us_p99", "us"},
	{"policy.cands_per_call", "count"},
	{"policy.busy_share", "ratio"},
	{"core.joinh_ns_per_cand", "ns"},
	{"core.forecast_us", "us"},
	{"core.horizon_terms", "count"},
	{"core.support_share", "ratio"},
	{"trace.untraced_tuples_per_s", "tuples/s"},
	{"trace.traced_tuples_per_s", "tuples/s"},
	{"trace.overhead_pct", "%"},
}
