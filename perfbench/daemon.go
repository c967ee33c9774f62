package main

import (
	"fmt"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"stochstream/internal/streamd"
	"stochstream/internal/streamd/client"
	"stochstream/internal/telemetry"
)

// bench is one daemon under load: the server, a client per session and
// the stream position of each session.
type bench struct {
	w   *workload
	st  *stream
	srv *streamd.Server
	cls []*client.Client
	bbs []batchBuf
	chk *checker

	next      []int // next batch index per session
	warmSteps int
	ingestErr error // first failed client.Ingest; the run stops there
}

// start launches the daemon, generates the stream, dials every session and
// warms up through session 0 until every shard cache is full: the set-up a
// deployment pays once before serving.
func start(w *workload, seed uint64, steps int) (*bench, error) {
	srv, err := streamd.Start(streamd.Config{Runtime: w.runtimeConfig(w.shards), Listen: "127.0.0.1:0"})
	if err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	st := newStream(w, seed, steps)
	b := &bench{w: w, st: st, srv: srv, bbs: make([]batchBuf, w.sessions), chk: newChecker(st), next: make([]int, w.sessions)}
	for s := 0; s < w.sessions; s++ {
		cl, err := client.Dial(client.Options{Addr: srv.Addr(), Session: fmt.Sprintf("perfbench-%d", s), Seed: uint64(s + 1)})
		if err != nil {
			b.close()
			return nil, fmt.Errorf("dial session %d: %w", s, err)
		}
		b.cls = append(b.cls, cl)
	}
	b.warmSteps = st.warmupSteps()
	for b.next[0]*w.batch < b.warmSteps {
		if _, _, ok := b.send(0, false); !ok {
			b.close()
			if b.ingestErr == nil {
				return nil, fmt.Errorf("warm-up needs more than the %d generated steps", st.n)
			}
			return nil, fmt.Errorf("warm-up: %w", b.ingestErr)
		}
	}
	return b, nil
}

func (b *bench) close() {
	for _, cl := range b.cls {
		_ = cl.Close() // the daemon is closed next; a failed goodbye changes nothing
	}
	if err := b.srv.Close(); err != nil {
		fmt.Printf("# daemon close: %v\n", err)
	}
}

// send ingests session sess's next batch and checks the reply. ok is false
// when the stream is exhausted or the ingest failed (b.ingestErr says which).
// Only session sess's goroutine may call it.
func (b *bench) send(sess int, digest bool) (rtt time.Duration, pairs int, ok bool) {
	B := b.w.batch
	idx := b.next[sess]
	if (idx+1)*B > b.st.n {
		return 0, 0, false
	}
	steps := b.st.wireBatch(&b.bbs[sess], sess, idx*B, B)
	t0 := time.Now()
	reply, err := b.cls[sess].Ingest(steps)
	rtt = time.Since(t0)
	b.next[sess]++
	if err != nil {
		b.chk.mu.Lock()
		if b.ingestErr == nil {
			b.ingestErr = fmt.Errorf("session %d batch %d: %w", sess, idx, err)
		}
		b.chk.failed++
		b.chk.mu.Unlock()
		return rtt, 0, false
	}
	return rtt, b.chk.check(batchRef{sess, idx}, reply, digest), true
}

// loopResult is what one load phase measured.
type loopResult struct {
	steps   int
	elapsed time.Duration
	rtts    []float64 // per-batch client.Ingest round trip, ms
	// lateMs is how late the open-loop generator sent each batch.
	lateMs []float64
	// rates holds the closed loop's tuples/s per rateWindow.
	rates []float64
}

func (r *loopResult) add(o loopResult) {
	r.steps += o.steps
	r.elapsed += o.elapsed
	r.rtts = append(r.rtts, o.rtts...)
	r.lateMs = append(r.lateMs, o.lateMs...)
	r.rates = append(r.rates, o.rates...)
}

func (r loopResult) tuplesPerSec() float64 { return 2 * float64(r.steps) / r.elapsed.Seconds() }

// rateWindow is the least span of one throughput window. The closed loop
// reports the median window rate, so a stall of a few seconds on a shared
// host moves tuples_per_s no more than a slow batch moves a median latency.
const rateWindow = 500 * time.Millisecond

// windowRates cuts a phase into back-to-back windows of at least
// rateWindow, each from one batch completion to a later one, and returns
// their rates; done holds the completion times in any order. A phase
// shorter than rateWindow is one window from its first completion to its
// last.
func windowRates(done []time.Duration, batch int) []float64 {
	slices.Sort(done)
	var rates []float64
	first := 0
	for i := range done {
		if span := done[i] - done[first]; span >= rateWindow {
			rates = append(rates, float64(2*batch*(i-first))/span.Seconds())
			first = i
		}
	}
	if n := len(done); len(rates) == 0 && n > 1 && done[n-1] > done[0] {
		rates = append(rates, float64(2*batch*(n-1))/(done[n-1]-done[0]).Seconds())
	}
	return rates
}

// quality sends w.quality steps through session 0 alone, checking every
// reply, and returns their pair count.
func (b *bench) quality() (int, error) {
	pairs := 0
	for done := 0; done < b.w.quality; done += b.w.batch {
		_, p, ok := b.send(0, false)
		if !ok {
			return 0, b.loadErr()
		}
		pairs += p
	}
	return pairs, nil
}

// closedLoop sends batches back to back, each session waiting for its
// reply before the next send, until dur has passed.
func (b *bench) closedLoop(dur time.Duration, digest bool) loopResult {
	start := time.Now()
	deadline := start.Add(dur)
	per := make([]loopResult, b.w.sessions)
	done := make([][]time.Duration, b.w.sessions)
	b.eachSession(func(s int) {
		for time.Now().Before(deadline) {
			rtt, _, ok := b.send(s, digest)
			if !ok {
				return
			}
			per[s].steps += b.w.batch
			per[s].rtts = append(per[s].rtts, ms(rtt))
			done[s] = append(done[s], time.Since(start))
		}
	})
	var res loopResult
	for _, p := range per {
		res.add(p)
	}
	res.elapsed = time.Since(start)
	res.rates = windowRates(slices.Concat(done...), b.w.batch)
	return res
}

// openLoop offers rate tuples/s for dur: session s's i-th batch is due at
// start + (i·sessions + s)·gap, gap being one batch's share of the rate.
// The schedule does not slow when the daemon does: a batch whose slot
// passed while its session still awaited an earlier reply goes out late,
// and its latency still runs from the slot, so a stall also charges the
// batches queued behind it.
func (b *bench) openLoop(dur time.Duration, rate float64) loopResult {
	gap := time.Duration(float64(2*b.w.batch) / rate * float64(time.Second))
	per := make([]loopResult, b.w.sessions)
	start := time.Now()
	b.eachSession(func(s int) {
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i*b.w.sessions+s) * gap)
			if due.After(start.Add(dur)) {
				return
			}
			time.Sleep(time.Until(due))
			late := time.Since(due)
			_, _, ok := b.send(s, false)
			if !ok {
				return
			}
			per[s].steps += b.w.batch
			per[s].rtts = append(per[s].rtts, ms(time.Since(due)))
			per[s].lateMs = append(per[s].lateMs, ms(late))
		}
	})
	var res loopResult
	for _, p := range per {
		res.add(p)
	}
	res.elapsed = time.Since(start)
	return res
}

// eachSession runs fn once per session on its own goroutine and waits.
func (b *bench) eachSession(fn func(s int)) {
	var wg sync.WaitGroup
	for s := 0; s < b.w.sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			fn(s)
		}(s)
	}
	wg.Wait()
}

// batchesSent returns how many batches each session has sent.
func (b *bench) batchesSent() []int { return append([]int(nil), b.next...) }

// stepsSent is the total over sessions.
func (b *bench) stepsSent() int {
	n := 0
	for _, x := range b.next {
		n += x * b.w.batch
	}
	return n
}

// finish runs the end-of-run checks against the daemon's own counters:
// steps_total must equal the steps sent. It returns the shed count.
func (b *bench) finish() (shed int64, err error) {
	snap := b.srv.Registry().Snapshot()
	steps, err := counter(snap, "streamd_steps_total")
	if err != nil {
		return 0, err
	}
	for _, name := range []string{"streamd_shed_queue_total", "streamd_shed_mem_total", "streamd_shed_slow_total"} {
		n, err := counter(snap, name)
		if err != nil {
			return 0, err
		}
		shed += n
	}
	if steps != int64(b.stepsSent()) {
		return shed, fmt.Errorf("daemon counted %d steps, the clients sent %d", steps, b.stepsSent())
	}
	return shed, nil
}

// counter reads a registry counter, failing when the program no longer
// keeps it: a renamed metric must break the benchmark, not read as zero.
func counter(snap telemetry.Snapshot, name string) (int64, error) {
	v, ok := snap.Counters[name]
	if !ok {
		return 0, fmt.Errorf("registry has no counter %q", name)
	}
	return v, nil
}

func histogram(snap telemetry.Snapshot, name string) (telemetry.HistogramSnapshot, error) {
	h, ok := snap.Histograms[name]
	if !ok {
		return h, fmt.Errorf("registry has no histogram %q", name)
	}
	return h, nil
}

// heapPeak samples the live heap every 2 ms until stopped, keeping the
// highest reading of each second.
type heapPeak struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // bytes, one per second started
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		start := time.Now()
		for {
			metrics.Read(s)
			i := int(time.Since(start) / time.Second)
			for len(h.peaks) <= i {
				h.peaks = append(h.peaks, 0)
			}
			h.peaks[i] = max(h.peaks[i], float64(s[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the median of the per-second peaks in
// MiB: the heap's high-water mark in a typical second, which one early or
// late collection cannot move the way it moves the single highest reading.
func (h *heapPeak) end() float64 {
	close(h.stop)
	<-h.done
	return median(h.peaks) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
