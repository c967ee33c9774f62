package main

import (
	"bytes"
	"fmt"
	"time"

	"stochstream/internal/core"
	"stochstream/internal/engine"
	"stochstream/internal/process"
	"stochstream/internal/shardrt"
	"stochstream/internal/stats"
	"stochstream/internal/streamd/wire"
	"stochstream/internal/telemetry"
)

// The traced run's layer figures come from replaying the run's own batches
// below the daemon, timing each layer through its public functions:
//
//   - shardrt: a fresh runtime with the daemon's config ingests the batches
//     in the daemon's global order; each IngestBatch is timed, and the shard
//     registries and Metrics are read between calls. Its pairs must match
//     the daemon's replies exactly.
//   - engine, policy: deltas of the shard registries' own histograms and
//     counters over that replay.
//   - wire: every replayed batch and reply goes through the encoders and
//     decoders the client and daemon use.
//   - core: the HEEB kernel rescoring the final cached keys over the global
//     stream histories.
//   - a one-shard runtime at the same total budget replays the prefix, the
//     baseline sharding is judged against.

// layerMetrics holds every per-layer figure by its BENCHMARK.json name.
type layerMetrics map[string]float64

// shardCounters is one read of the per-shard figures the replay tracks.
type shardCounters struct {
	busyNs    []float64 // engine_step_latency_ns sum per shard
	steps     []int     // engine steps per shard
	evictions int
	expired   int
	ingested  int
}

func readShards(rt *shardrt.Runtime, busy []*telemetry.Histogram) shardCounters {
	m := rt.Metrics()
	c := shardCounters{busyNs: make([]float64, len(busy)), steps: make([]int, len(busy)), ingested: m.Ingested}
	for i, h := range busy {
		c.busyNs[i] = h.Snapshot().Sum
		c.steps[i] = m.Shards[i].Engine.Steps
		c.evictions += m.Shards[i].Engine.Evictions
		c.expired += m.Shards[i].Engine.Expired
	}
	return c
}

// policyHist is the name the engine's telemetry wrapper gives the
// policy's eviction latency histogram.
func (w *workload) policyHist() string {
	name := "RAND"
	if w.heeb() {
		name = "HEEB"
	}
	return `policy_evict_latency_ns{policy="` + name + `"}`
}

// requireShardMetrics fails unless every shard registry keeps the
// metrics the replay reads, and returns the step-latency histograms.
func requireShardMetrics(w *workload, rt *shardrt.Runtime) ([]*telemetry.Histogram, error) {
	var busy []*telemetry.Histogram
	for i := 0; i < rt.ShardCount(); i++ {
		reg := rt.Registry(i)
		if reg == nil {
			return nil, fmt.Errorf("shard %d has no telemetry registry", i)
		}
		snap := reg.Snapshot()
		for _, h := range []string{"engine_step_latency_ns", w.policyHist()} {
			if _, err := histogram(snap, h); err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
		}
		if _, err := counter(snap, "engine_steps_total"); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		busy = append(busy, reg.Histogram("engine_step_latency_ns"))
	}
	return busy, nil
}

// policySnap sums the policy latency histogram over the shards.
func policySnap(w *workload, rt *shardrt.Runtime) (telemetry.HistogramSnapshot, error) {
	var sum telemetry.HistogramSnapshot
	for i := 0; i < rt.ShardCount(); i++ {
		h, err := histogram(rt.Registry(i).Snapshot(), w.policyHist())
		if err != nil {
			return sum, err
		}
		if sum.Counts == nil {
			sum.Bounds = h.Bounds
			sum.Counts = make([]int64, len(h.Counts))
		}
		for k, c := range h.Counts {
			sum.Counts[k] += c
		}
		sum.Count += h.Count
		sum.Sum += h.Sum
	}
	return sum, nil
}

func histDelta(a, b telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	d := telemetry.HistogramSnapshot{Bounds: b.Bounds, Counts: make([]int64, len(b.Counts)), Count: b.Count - a.Count, Sum: b.Sum - a.Sum}
	for k := range b.Counts {
		d.Counts[k] = b.Counts[k] - a.Counts[k]
	}
	return d
}

// runtimeBatch is batch ref in shardrt form, with freshly allocated
// payloads: the runtime keeps cached tuples' payloads across batches.
func (st *stream) runtimeBatch(ref batchRef) []shardrt.Step {
	var bb batchBuf
	ws := st.wireBatch(&bb, ref.sess, ref.idx*st.w.batch, st.w.batch)
	out := make([]shardrt.Step, len(ws))
	for i, s := range ws {
		out[i] = shardrt.Step{
			R: engine.Tuple{Key: int(s.RKey), Payload: s.RPayload},
			S: engine.Tuple{Key: int(s.SKey), Payload: s.SPayload},
		}
	}
	return out
}

// toWire converts runtime pairs exactly as the daemon does before encoding.
func toWire(pairs []shardrt.Pair) []wire.Pair {
	out := make([]wire.Pair, len(pairs))
	for i, p := range pairs {
		rp, _ := p.R.Payload.([]byte)
		sp, _ := p.S.Payload.([]byte)
		out[i] = wire.Pair{
			RSeq: p.RSeq, SSeq: p.SSeq,
			RKey: int64(p.R.Key), SKey: int64(p.S.Key),
			Shard: uint16(p.Shard), SameStep: p.SameStep,
			RPayload: rp, SPayload: sp,
		}
	}
	return out
}

// replayResult carries what the replay measured plus what later stages
// need: the replay's mismatches and its prefix figures for the baseline.
type replayResult struct {
	layers     layerMetrics
	mismatches int
	prefixMs   float64
	prefixPair int
}

// replay drives a fresh runtime through the daemon's batch order and
// measures the shardrt, engine, policy and wire layers on every batch after
// warm-up.
func replay(b *bench, order []batchRef) (*replayResult, *shardrt.Runtime, error) {
	w := b.w
	rt, err := shardrt.New(w.runtimeConfig(w.shards))
	if err != nil {
		return nil, nil, fmt.Errorf("replay runtime: %w", err)
	}
	busy, err := requireShardMetrics(w, rt)
	if err != nil {
		rt.Shutdown()
		return nil, nil, err
	}
	res := &replayResult{layers: layerMetrics{}}
	warmBatches := b.warmSteps / w.batch
	var (
		ingestMs, busyMax, busySum, skew, carry  []float64
		inBytes, outBytes, inDec, outEnc, outDec []float64
		start                                    shardCounters
		polStart                                 telemetry.HistogramSnapshot
		elapsedMs                                float64
		cumPairs                                 int
	)
	for k, ref := range order {
		steps := b.st.runtimeBatch(ref)
		measured := k >= warmBatches
		var before shardCounters
		if measured {
			before = readShards(rt, busy)
			if k == warmBatches {
				start = before
				if polStart, err = policySnap(w, rt); err != nil {
					rt.Shutdown()
					return nil, nil, err
				}
			}
		}
		t0 := time.Now()
		pairs, err := rt.IngestBatch(steps)
		d := ms(time.Since(t0))
		if err != nil {
			rt.Shutdown()
			return nil, nil, fmt.Errorf("replay batch %d: %w", k, err)
		}
		elapsedMs += d
		cumPairs += len(pairs)
		if (k+1)*w.batch == w.baseline {
			res.prefixMs, res.prefixPair = elapsedMs, cumPairs
		}
		if (k+1)*w.batch == b.warmSteps {
			for i, m := range rt.Metrics().Shards {
				if m.Engine.CacheLen != m.Budget {
					rt.Shutdown()
					return nil, nil, fmt.Errorf("after warm-up shard %d holds %d tuples, budget %d", i, m.Engine.CacheLen, m.Budget)
				}
			}
		}
		var wp []wire.Pair
		if dg, ok := b.chk.digests[ref]; ok {
			wp = toWire(pairs)
			if digestWire(wp) != dg {
				res.mismatches++
			}
		}
		if !measured {
			continue
		}
		after := readShards(rt, busy)
		ingestMs = append(ingestMs, d)
		var mx, sum float64
		var smax, ssum int
		for i := range busy {
			db := after.busyNs[i] - before.busyNs[i]
			mx, sum = max(mx, db), sum+db
			ds := after.steps[i] - before.steps[i]
			smax, ssum = max(smax, ds), ssum+ds
		}
		busyMax = append(busyMax, mx/1e6)
		busySum = append(busySum, sum/1e6)
		if ssum > 0 {
			skew = append(skew, float64(smax)*float64(len(busy))/float64(ssum))
		}
		stepped := 0
		for _, s := range after.steps {
			stepped += s
		}
		carry = append(carry, float64(after.ingested-stepped))

		if wp == nil {
			wp = toWire(pairs)
		}
		ib, id, ob, oe, od, err := wireRound(b.st, ref, wp)
		if err != nil {
			rt.Shutdown()
			return nil, nil, err
		}
		inBytes, inDec = append(inBytes, ib), append(inDec, id)
		outBytes, outEnc, outDec = append(outBytes, ob), append(outEnc, oe), append(outDec, od)
	}
	if len(ingestMs) == 0 {
		rt.Shutdown()
		return nil, nil, fmt.Errorf("replay: no batch after warm-up")
	}
	end := readShards(rt, busy)
	polEnd, err := policySnap(w, rt)
	if err != nil {
		rt.Shutdown()
		return nil, nil, err
	}
	pol := histDelta(polStart, polEnd)
	var engNs float64
	engSteps := 0
	for i := range busy {
		engNs += end.busyNs[i] - start.busyNs[i]
		engSteps += end.steps[i] - start.steps[i]
	}
	globalSteps := float64(end.ingested - start.ingested)

	L := res.layers
	L["shardrt.ingest_p50_ms"] = quantile(ingestMs, 0.5)
	L["shardrt.ingest_p99_ms"] = quantile(ingestMs, tailQ(len(ingestMs)))
	L["shardrt.shard_busy_max_ms"] = mean(busyMax)
	L["shardrt.shard_busy_sum_ms"] = mean(busySum)
	L["shardrt.step_skew"] = mean(skew)
	L["shardrt.carry_steps"] = mean(carry)
	L["engine.step_us"] = engNs / float64(engSteps) / 1e3
	L["engine.self_us"] = (engNs - pol.Sum) / float64(engSteps) / 1e3
	L["engine.evictions_per_kstep"] = float64(end.evictions-start.evictions) / globalSteps * 1e3
	L["engine.expired_per_kstep"] = float64(end.expired-start.expired) / globalSteps * 1e3
	L["policy.evict_us_p50"] = pol.Quantile(0.5) / 1e3
	L["policy.evict_us_p99"] = pol.Quantile(tailQ(int(pol.Count))) / 1e3
	L["policy.busy_share"] = pol.Sum / engNs
	L["policy.cands_per_call"] = candsPerCall(rt)
	L["wire.ingest_bytes"] = mean(inBytes)
	L["wire.results_bytes"] = mean(outBytes)
	L["wire.ingest_decode_us"] = mean(inDec)
	L["wire.results_encode_us"] = mean(outEnc)
	L["wire.results_decode_us"] = mean(outDec)

	var ckMs []float64
	var ckBytes int
	for r := 0; r < 5; r++ {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := rt.Checkpoint(&buf); err != nil {
			rt.Shutdown()
			return nil, nil, fmt.Errorf("checkpoint: %w", err)
		}
		ckMs = append(ckMs, ms(time.Since(t0)))
		ckBytes = buf.Len()
	}
	L["shardrt.checkpoint_ms"] = median(ckMs)
	L["shardrt.checkpoint_kb"] = float64(ckBytes) / 1024
	return res, rt, nil
}

// candsPerCall averages the candidate count of the decisions the shard
// registries sampled into their decision traces. Only policies that can
// explain their scores (HEEB) record traces; for RAND it is 0.
func candsPerCall(rt *shardrt.Runtime) float64 {
	var n, c int
	for i := 0; i < rt.ShardCount(); i++ {
		for _, rec := range rt.Registry(i).Trace().Records() {
			n++
			c += len(rec.Candidates)
		}
	}
	if n == 0 {
		return 0
	}
	return float64(c) / float64(n)
}

// wireRound re-encodes one batch and its reply the way the client and the
// daemon do, timing the decode of the ingest frame, the encode of the reply
// frames and their decode. Bytes count whole frames.
func wireRound(st *stream, ref batchRef, pairs []wire.Pair) (inBytes, inDecUs, outBytes, outEncUs, outDecUs float64, err error) {
	var bb batchBuf
	base := uint64(ref.idx + 1)
	payload := wire.EncodeIngest(wire.Ingest{Base: base, Steps: st.wireBatch(&bb, ref.sess, ref.idx*st.w.batch, st.w.batch)})
	inBytes = float64(len(wire.Frame(wire.TypeIngest, payload)))
	t0 := time.Now()
	if _, err := wire.DecodeIngest(payload); err != nil {
		return 0, 0, 0, 0, 0, fmt.Errorf("wire replay: decode ingest: %w", err)
	}
	inDecUs = us(time.Since(t0))

	t0 = time.Now()
	frames := wire.EncodeResultsFrames(wire.Results{AckSeq: base, Credits: 4096, Pairs: pairs})
	outEncUs = us(time.Since(t0))
	outBytes = float64(len(frames))

	t0 = time.Now()
	rd := bytes.NewReader(frames)
	got := 0
	for rd.Len() > 0 {
		_, p, err := wire.ReadFrame(rd)
		if err != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("wire replay: read results: %w", err)
		}
		f, err := wire.DecodeResults(p)
		if err != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("wire replay: decode results: %w", err)
		}
		got += len(f.Pairs)
	}
	outDecUs = us(time.Since(t0))
	if got != len(pairs) {
		return 0, 0, 0, 0, 0, fmt.Errorf("wire replay: %d pairs decoded, %d encoded", got, len(pairs))
	}
	return inBytes, inDecUs, outBytes, outEncUs, outDecUs, nil
}

// baseline replays the first w.baseline steps on one shard at the same
// total budget and returns its pair count and time.
func baseline(b *bench, order []batchRef) (pairs int, elapsedMs float64, err error) {
	rt, err := shardrt.New(b.w.runtimeConfig(1))
	if err != nil {
		return 0, 0, fmt.Errorf("baseline runtime: %w", err)
	}
	defer rt.Shutdown()
	for k := 0; (k+1)*b.w.batch <= b.w.baseline; k++ {
		steps := b.st.runtimeBatch(order[k])
		t0 := time.Now()
		out, err := rt.IngestBatch(steps)
		elapsedMs += ms(time.Since(t0))
		if err != nil {
			return 0, 0, fmt.Errorf("baseline batch %d: %w", k, err)
		}
		pairs += len(out)
	}
	return pairs, elapsedMs, nil
}

// coreKernel rescores every cached tuple of the replayed runtime with
// core.JoinHCached over the global stream histories, the way HEEBDirect
// scores a decision: one forecast memo per decision, then one H sum per
// candidate. It reports the memo's fill time, the per-candidate sum time,
// the horizon length and the share of horizon terms with forecast support.
func coreKernel(b *bench, order []batchRef, rt *shardrt.Runtime, L layerMetrics) {
	w := b.w
	hists := [2]*process.History{process.NewHistory(), process.NewHistory()}
	for _, ref := range order {
		for t := ref.idx * w.batch; t < (ref.idx+1)*w.batch; t++ {
			hists[0].Append(b.st.key(ref.sess, t, 0))
			hists[1].Append(b.st.key(ref.sess, t, 1))
		}
	}
	opts := hotHEEB()
	const fallback = 1000 // policy.NewHEEB's FallbackHorizon default
	lexp := core.TabulateL(core.LExp{Alpha: stats.AlphaForLifetime(opts.LifetimeEstimate)}, fallback)
	type cand struct {
		v       int
		partner core.StreamID
		l       core.LFunc
		horizon int
	}
	var cands []cand
	maxH := 1
	for i, m := range rt.Metrics().Shards {
		now := m.Engine.Steps
		for _, tp := range rt.Shard(i).Snapshot() {
			var l core.LFunc = lexp
			if w.window > 0 {
				l = core.LWindow{Inner: lexp, Remaining: tp.Arrived + w.window - now}
			}
			h := core.HorizonFor(l, fallback)
			maxH = max(maxH, h)
			cands = append(cands, cand{tp.Value, tp.Stream.Partner(), l, h})
		}
	}
	procs := w.procs()
	fc := core.NewForecastCache(procs, hists)
	var fcUs, sumNs []float64
	for r := 0; r < 15; r++ {
		fc.Rebind(procs, hists)
		t0 := time.Now()
		fc.Warm(core.StreamR, maxH)
		fc.Warm(core.StreamS, maxH)
		fcUs = append(fcUs, us(time.Since(t0)))
		t0 = time.Now()
		for _, c := range cands {
			core.JoinHCached(fc, c.partner, c.v, c.l, fallback)
		}
		sumNs = append(sumNs, float64(time.Since(t0).Nanoseconds())/float64(len(cands)))
	}
	terms, support := 0, 0
	for _, c := range cands {
		for dt := 1; dt <= c.horizon; dt++ {
			terms++
			if fc.At(c.partner, dt).Prob(c.v) != 0 {
				support++
			}
		}
	}
	L["core.forecast_us"] = median(fcUs)
	L["core.joinh_ns_per_cand"] = median(sumNs)
	L["core.horizon_terms"] = float64(terms) / float64(len(cands))
	L["core.support_share"] = float64(support) / float64(terms)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
