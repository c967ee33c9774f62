package main

import (
	"encoding/binary"

	"stochstream/internal/dist"
	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/shardrt"
	"stochstream/internal/stats"
	"stochstream/internal/streamd/wire"
)

// workload is one daemon configuration plus the stream that drives it.
// Every size here is a constant of the benchmark: a change that claims a
// gain must be measured against the same shapes as its parent.
type workload struct {
	name     string
	shards   int
	cache    int // total cache budget across shards
	window   int // sliding window in shard steps (0 = unbounded)
	batch    int // steps per client.Ingest call
	sessions int // concurrent client sessions in the closed and open loops
	payload  int // payload bytes per tuple (the first idBytes name the tuple)

	// procs, when non-nil, are the stream models: keys are drawn from them
	// and the shards score with HEEB (hotHEEB). Without models keys are
	// uniform over uniformKeys values and the runtime falls back to RAND,
	// which is what a model-less stochstreamd deploys.
	procs       func() [2]process.Process
	uniformKeys int

	// quality is how many steps session 0 sends alone right after warm-up;
	// pairs_per_kstep counts their pairs, so it is a pure function of the
	// seed whatever the sessions interleave later. An untraced run starts
	// qualityRuns daemons, each on its own stream derived from the seed,
	// and averages: trend-8shard's pair count swings ~27% from one stream
	// to the next, so it needs many short streams for a steady mean. The
	// same daemons give setup_s its median, so a workload whose set-up
	// takes milliseconds starts more of them.
	quality     int
	qualityRuns int
	// baseline is the step prefix the traced run replays on one shard; it
	// must lie within warm-up plus the quality steps (one session only).
	baseline int
	// olRate is the open loop's offered load in tuples/s: about half the
	// closed-loop tuples_per_s measured when the benchmark was defined (two
	// cores, Linux, go1.24).
	olRate float64
	// maxStepsPerSec bounds the steps one session can send per second; it
	// only sizes the pre-generated model streams.
	maxStepsPerSec int
}

// hotHEEB is the hot-path HEEB configuration of bench_shard_test.go: direct
// scoring with a pinned lifetime estimate.
func hotHEEB() policy.HEEBOptions {
	return policy.HEEBOptions{Mode: policy.HEEBDirect, LifetimeEstimate: 32}
}

var workloads = []*workload{
	{
		// The ROADMAP hot path: HEEB on the two LinearTrend streams of
		// bench_shard_test.go, 8 shards sharing 256 slots.
		name: "trend-8shard", shards: 8, cache: 256, batch: 64, sessions: 1, payload: idBytes,
		procs: func() [2]process.Process {
			return [2]process.Process{
				&process.LinearTrend{Slope: 1, Intercept: -1, Noise: dist.BoundedNormal(2, 12)},
				&process.LinearTrend{Slope: 1, Intercept: 0, Noise: dist.BoundedNormal(3, 15)},
			}
		},
		quality: 2048, qualityRuns: 24, baseline: 2048, olRate: 4600, maxStepsPerSec: 15000,
	},
	{
		// The paper's REAL AR(1) fit in °C: a stationary key domain with
		// wide forecast support, the horizon clipped by the window.
		name: "ar1-window", shards: 2, cache: 64, window: 32, batch: 16, sessions: 1, payload: idBytes,
		procs: func() [2]process.Process {
			return [2]process.Process{
				&process.AR1{Phi0: 5.59, Phi1: 0.72, Sigma: 4.22, Init: 20},
				&process.AR1{Phi0: 5.59, Phi1: 0.72, Sigma: 4.22, Init: 20},
			}
		},
		quality: 1024, qualityRuns: 9, baseline: 1024, olRate: 1550, maxStepsPerSec: 10000,
	},
	{
		// What stochstreamd deploys without models: RAND, with ~16 pairs
		// per step, so wire, sessions and the shardrt merge dominate.
		// Batches are 64 steps: with 512 the two sessions' replies fall
		// into or out of step for seconds at a time, and the closed-loop
		// rate of a run swung ~15% with that alone.
		name: "rand-wide", shards: 4, cache: 1024, batch: 64, sessions: 2, payload: 64,
		uniformKeys: 64,
		quality:     4096, qualityRuns: 15, baseline: 4096, olRate: 26000, maxStepsPerSec: 100000,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) heeb() bool { return w.procs != nil }

// runtimeConfig is the shardrt configuration the daemon mounts. It matches
// what stochstreamd deploys — shard telemetry on, flight recorder off,
// runtime seed 1, no rebalancing — plus the models when the workload has
// them.
func (w *workload) runtimeConfig(shards int) shardrt.Config {
	cfg := shardrt.Config{
		Shards:     shards,
		TotalCache: w.cache,
		Window:     w.window,
		Seed:       1,
		Telemetry:  true,
	}
	if w.heeb() {
		cfg.Procs = w.procs()
		cfg.NewPolicy = func(int) join.Policy { return policy.NewHEEB(hotHEEB()) }
	}
	return cfg
}

// budgets mirrors shardrt's initial split of TotalCache.
func (w *workload) budgets() []int {
	out := make([]int, w.shards)
	for i := range out {
		out[i] = w.cache / w.shards
		if i < w.cache%w.shards {
			out[i]++
		}
	}
	return out
}

// idBytes is the size of the tuple identity every payload starts with:
// session, step within the session's stream, and side (0 = R, 1 = S).
const idBytes = 8

func tupleID(sess, step, side int) uint64 {
	return uint64(sess)<<40 | uint64(step)<<1 | uint64(side)
}

func splitID(id uint64) (sess, step, side int) {
	return int(id >> 40), int(id&(1<<40-1)) >> 1, int(id & 1)
}

// mix is splitmix64's finalizer.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// stream is the generated input of one run: per session, one key per side
// per step. Model streams are sampled up front (the models generate whole
// paths); uniform keys are a hash of the seed and the tuple identity.
type stream struct {
	w    *workload
	seed uint64
	keys [][2][]int32 // [session][side][step]; nil for uniform streams
	n    int          // steps available per session
}

// streamSeed derives the seed of the k-th stream of a run.
func streamSeed(seed uint64, k int) uint64 { return mix(seed) + uint64(k) }

func newStream(w *workload, seed uint64, n int) *stream {
	st := &stream{w: w, seed: seed, n: n}
	if !w.heeb() {
		return st
	}
	procs := w.procs()
	rng := stats.NewRNG(seed)
	st.keys = make([][2][]int32, w.sessions)
	for s := range st.keys {
		for side := 0; side < 2; side++ {
			vals := procs[side].Generate(rng.Split(), n)
			k := make([]int32, n)
			for t, v := range vals {
				k[t] = int32(v)
			}
			st.keys[s][side] = k
		}
	}
	return st
}

func (st *stream) key(sess, step, side int) int {
	if st.keys != nil {
		return int(st.keys[sess][side][step])
	}
	return int(mix(st.seed^mix(tupleID(sess, step, side))) % uint64(st.w.uniformKeys))
}

// fillPayload writes the payload of a tuple into b (len w.payload): its
// identity, then filler derived from it so every byte is checkable.
func (st *stream) fillPayload(b []byte, id uint64) {
	binary.BigEndian.PutUint64(b, id)
	f := mix(id ^ st.seed)
	for i := idBytes; i < len(b); i++ {
		b[i] = byte(f >> (8 * (i % 8)))
	}
}

// batchBuf builds one session's batches into reused storage.
type batchBuf struct {
	steps []wire.Step
	arena []byte
}

// wireBatch returns steps [lo, lo+n) of session sess in wire form; the
// result is valid until the next call on the same buffer.
func (st *stream) wireBatch(bb *batchBuf, sess, lo, n int) []wire.Step {
	p := st.w.payload
	if cap(bb.steps) < n {
		bb.steps = make([]wire.Step, n)
		bb.arena = make([]byte, 2*n*p)
	}
	steps := bb.steps[:n]
	for i := range steps {
		t := lo + i
		rp := bb.arena[2*i*p : (2*i+1)*p : (2*i+1)*p]
		sp := bb.arena[(2*i+1)*p : (2*i+2)*p : (2*i+2)*p]
		st.fillPayload(rp, tupleID(sess, t, 0))
		st.fillPayload(sp, tupleID(sess, t, 1))
		steps[i] = wire.Step{
			RKey: int64(st.key(sess, t, 0)), SKey: int64(st.key(sess, t, 1)),
			RPayload: rp, SPayload: sp,
		}
	}
	return steps
}

// warmupSteps is the whole-batch prefix of session 0 after which every
// shard has stepped at least half its budget in synchronized steps — two
// admissions per step, so each shard cache is full. Routing is computed with
// shardrt.ShardOf, the runtime's own partition function.
func (st *stream) warmupSteps() int {
	w := st.w
	need := w.budgets()
	routed := make([][2]int, w.shards)
	for t := 0; t < st.n; t++ {
		for side := 0; side < 2; side++ {
			routed[shardrt.ShardOf(st.key(0, t, side), w.shards)][side]++
		}
		if (t+1)%w.batch != 0 {
			continue
		}
		full := true
		for i, r := range routed {
			if 2*min(r[0], r[1]) < need[i] {
				full = false
				break
			}
		}
		if full {
			return t + 1
		}
	}
	return st.n - st.n%w.batch
}
