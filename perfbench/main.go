// Command perfbench is the repository's benchmark. It drives the FedOMD
// pipeline through each layer's public entry points — dataset generation,
// graph.Split, Louvain partitioning, core.NewClient, fed.Run or the
// loopback transport, fed.FileCheckpointer, fed.LoadCheckpointFile,
// serve.InferencerFromCheckpoint and serve.Service — on one named workload.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload cora-m3 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with the
// end-to-end metrics; with --trace 1 the run wraps every client in a timing
// decorator, attaches the program's telemetry.Aggregator, writes its spans
// to .bench_build/ and prints the per-layer metrics instead. Earlier lines
// are a human-readable account of the run and its environment.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"fedomd/internal/codec"
	"fedomd/internal/fed"
	"fedomd/internal/mat"
	"fedomd/internal/obs"
	"fedomd/internal/serve"
	"fedomd/internal/telemetry"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool // tiny inputs and stages; only the self-test sets it
	outDir   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: cora-m3, wire-q8-m2, sbm-200k-m8 or serve-cora-swap")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured window, s")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	o.outDir = ".bench_build"
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// p99Window is the width of the windows serve_p99_ms takes the median
// p99 over; at the nominal rates each holds over 1000 requests.
const p99Window = 250 * time.Millisecond

// runner carries one benchmark run's state.
type runner struct {
	w   *workload
	o   options
	out io.Writer

	attempted, failed int64
	problems          []string

	setupWall  []float64
	setupTimes map[string][]float64 // layer → one sample per set-up
	times      map[string][]float64 // serve layer timings

	runs   []*trainRun // training runs the round metrics come from
	traced []*trainRun // traced training runs (trace mode)
	pairs  []runRate   // training-run throughput in run order (trace mode)

	probes  probes // zero unless tracing
	kept    []span
	kernels map[string]int64 // global counter deltas over traced runs
	allocMB float64

	serving *serveOut
	t0      time.Time
	cpu0    cpuTimes
}

type runRate struct {
	traced bool
	rps    float64
}

func (r *runner) logf(format string, args ...any) { fmt.Fprintf(r.out, format+"\n", args...) }

func (r *runner) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	r.logf("CHECK FAILED: %s", msg)
}

func run(o options, out io.Writer) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	r := &runner{w: w, o: o, out: out, setupTimes: map[string][]float64{}, times: map[string][]float64{},
		kernels: map[string]int64{}, t0: time.Now(), cpu0: readCPUTimes()}
	if o.trace {
		log := &spanLog{}
		sink := &tracerSink{log: log}
		r.probes = probes{log: log, rec: telemetry.NewAggregator(), tracer: obs.NewTracer(sink), sink: sink}
	}
	r.env()
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.outDir, "perfbench-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	srv, f, err := r.setup(work)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.close()
		}
	}()

	window := time.Duration(o.seconds * float64(time.Second))
	// Training workloads serve their final model for a short stage; the
	// serving workload spends its whole window serving: 30% swap-free at
	// the nominal rate, 40% at the nominal rate while swapping, and 30% on
	// the swap-free capacity ladder.
	plan := stagePlan{nominal: 3 * time.Second, step: 250 * time.Millisecond}
	if w.rounds == 0 {
		plan = stagePlan{nominal: window * 3 / 10, swapping: window * 4 / 10}
		plan.step = (window - plan.nominal - plan.swapping) / ladderRungs
	}
	if o.smoke {
		plan = stagePlan{nominal: 200 * time.Millisecond, swapping: 1200 * time.Millisecond, step: 50 * time.Millisecond}
	}
	if w.rounds > 0 {
		trainFor := window - plan.nominal - plan.step*ladderRungs
		ckpt := filepath.Join(work, "model.ckpt")
		if err := r.trainWindow(f, trainFor, ckpt); err != nil {
			return nil, err
		}
		if srv, err = newServer([]string{ckpt}, f.g, r.probes.rec, r.times); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	f = nil
	runtime.GC() // serve without the training fleet's garbage or live heap
	r.serve(srv, plan)

	steal := r.cpu0.stealPct(readCPUTimes())
	r.logf("os: %.2f%% of the machine's CPU time was stolen by the host during the run", steal)
	var metrics map[string]metric
	if o.trace {
		metrics = r.layerMetrics()
		metrics["os.steal_pct"] = metric{steal, "%"}
		path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, o.seed))
		if err := writeSpans(path, r.t0, r.kept); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		r.logf("trace: %d spans written to %s", len(r.kept), path)
	} else {
		metrics = r.endToEnd()
	}
	res := &result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	for _, k := range sortedKeys(res.Metrics) {
		r.logf("metric %-34s %14.6g %s", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// env prints the environment record every result carries.
func (r *runner) env() {
	rec := map[string]any{
		"workload":    r.w.name,
		"seed":        r.o.seed,
		"seconds":     r.o.seconds,
		"trace":       r.o.trace,
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"simd":        mat.SIMDEnabled(),
		"mat_workers": mat.Workers(),
		"go":          runtime.Version(),
		"commit":      commit(),
	}
	b, _ := json.Marshal(rec) // a map of plain values always marshals
	r.logf("env: %s", b)
}

// commit names the source the benchmark was built from: the VCS revision
// the toolchain stamped, or else a digest of the module's Go sources and
// go.mod files under the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// Set-up repeats at least minSetups times and, when one is quick, until
// setupFor has passed (at most maxSetups times), so that setup_s is a
// median over enough samples to repeat across runs.
const (
	minSetups = 3
	maxSetups = 25
	setupFor  = 500 * time.Millisecond
)

// setup builds the workload's inputs several times and keeps the last
// build; setup_s is the median. The serving workload's set-up also trains a
// short run to checkpoints and starts the service on them.
func (r *runner) setup(work string) (*server, *fleet, error) {
	var srv *server
	var f *fleet
	start := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(start) < setupFor); i++ {
		if r.o.smoke && i == 1 {
			break
		}
		if srv != nil {
			srv.close()
			srv = nil
		}
		f = nil
		runtime.GC()
		times := map[string]float64{}
		t := time.Now()
		var err error
		f, err = r.w.buildFleet(r.o.seed, r.o.smoke, times)
		if err != nil {
			return nil, nil, err
		}
		if r.w.setupRounds > 0 {
			if srv, err = r.setupServer(f, work, i, times); err != nil {
				return nil, nil, err
			}
		}
		r.setupWall = append(r.setupWall, since(t))
		for k, v := range times {
			r.setupTimes[k] = append(r.setupTimes[k], v)
		}
	}
	r.logf("setup: %d nodes, %d edges, %d parties; %s", f.g.NumNodes(), f.g.NumEdges(), len(f.clients), fmtSamples(r.setupWall))
	return srv, f, nil
}

// setupServer trains the serving workload's model, checkpointing along the
// way, and serves the checkpoints. In trace mode the set-up repetitions
// alternate untraced and traced training, which gives the tracing overhead
// its pairs.
func (r *runner) setupServer(f *fleet, work string, rep int, times map[string]float64) (*server, error) {
	var paths []string
	write := func(ck *fed.Checkpoint) error {
		p := filepath.Join(work, fmt.Sprintf("round-%d.ckpt", ck.Round))
		if err := fed.FileCheckpointer(p)(ck); err != nil {
			return err
		}
		paths = append(paths, p)
		return nil
	}
	traced := r.o.trace && rep%2 == 1
	if err := r.measuredRun(f, r.w.setupRounds, write, traced); err != nil {
		return nil, err
	}
	serveTimes := map[string][]float64{}
	srv, err := newServer(paths, f.g, r.probes.rec, serveTimes)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	for k, v := range serveTimes {
		times[k] += sum(v)
		r.times[k] = append(r.times[k], v...)
	}
	return srv, nil
}

// trainWindow repeats training runs until the window would be overrun
// (always at least one). In trace mode runs are half as long: an untraced
// warm-up run goes first, then pairs of one traced and one untraced run,
// swapping which goes first in each pair.
func (r *runner) trainWindow(f *fleet, d time.Duration, ckpt string) error {
	rounds := r.w.rounds
	if r.o.smoke {
		rounds = 4
	}
	if r.o.trace {
		rounds = max(rounds/2, 2)
	}
	write := fed.FileCheckpointer(ckpt)
	deadline := time.Now().Add(d)
	for i := 0; ; i++ {
		t := time.Now()
		k, second := (i-1)/2, (i-1)%2 == 1
		traced := r.o.trace && i > 0 && second == (k%2 == 1)
		if err := r.measuredRun(f, rounds, write, traced); err != nil {
			return err
		}
		pairDone := !r.o.trace || (i > 0 && second)
		if pairDone && (r.o.smoke || time.Until(deadline) < time.Since(t)) {
			return nil
		}
	}
}

// measuredRun runs one training run and books its outcome.
func (r *runner) measuredRun(f *fleet, rounds int, write func(*fed.Checkpoint) error, traced bool) error {
	var p probes
	var g0 map[string]int64
	var m0 runtime.MemStats
	if traced {
		p = r.probes
		g0 = telemetry.GlobalCounters()
		runtime.ReadMemStats(&m0)
	}
	tr, err := r.w.train(f, rounds, write, p)
	if err != nil {
		return fmt.Errorf("training run: %w", err)
	}
	r.attempted += int64(rounds)
	if traced {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		r.allocMB += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		for k, v := range telemetry.GlobalCounters() {
			r.kernels[k] += v - g0[k]
		}
		tr.spans, tr.traced = p.log.take(), true
		r.traced = append(r.traced, tr)
	}
	res := tr.res
	for _, h := range res.History {
		if h.Degraded {
			r.failed++
		}
	}
	floor, drop := r.w.floor, minLossDrop
	if r.o.smoke {
		floor, drop = 0, 0
	}
	if err := checkTraining(res, floor, drop); err != nil {
		r.problem("%v", err)
	}
	// Every training run of a benchmark run starts from the same inputs and
	// seeds, so its accuracies must repeat exactly; on the loopback workload
	// this also pins the party order.
	if len(r.runs) > 0 {
		if prev := r.runs[0].res; len(prev.History) == len(res.History) &&
			(prev.TestAtBestVal != res.TestAtBestVal || prev.FinalTestAcc != res.FinalTestAcc) {
			r.problem("training not reproducible: test@best %.6f final %.6f, first run %.6f final %.6f",
				res.TestAtBestVal, res.FinalTestAcc, prev.TestAtBestVal, prev.FinalTestAcc)
		}
	}
	rt := roundTimes(res)
	r.pairs = append(r.pairs, runRate{traced: traced, rps: float64(len(rt)) / (sum(rt) / 1000)})
	r.runs = append(r.runs, tr)
	r.logf("train: %d rounds in %.3fs (traced %v): best val %.4f test@best %.4f final test %.4f, %s/round",
		len(res.History), tr.wall, traced, res.BestValAcc, res.TestAtBestVal, res.FinalTestAcc, fmtSamples(rt))
	return nil
}

// serve runs the serving stage and checks every answer.
func (r *runner) serve(srv *server, plan stagePlan) {
	out := srv.stage(r.w.serve, plan, r.o.seed+7)
	for k, v := range out.times {
		r.times[k] = append(r.times[k], v...)
	}
	r.serving = out
	for _, l := range out.describe() {
		r.logf("%s", l)
	}
	for _, l := range out.all() {
		if l.incorrect > 0 {
			r.problem("serve: %d of %d answers at %.0f req/s disagree with InferInto under the round they report", l.incorrect, l.sent, l.rate)
		}
	}
	for _, l := range out.fixed() {
		r.attempted += int64(l.sent)
		r.failed += int64(l.failed)
	}
	r.attempted += int64(out.swaps)
	r.failed += int64(out.swapFails)
	if r.w.serve.swapEvery > 0 && out.swaps == 0 && !r.o.smoke {
		r.problem("serve: no hot swap happened")
	}
	if out.nominal.failed > 0 {
		r.problem("serve: %d requests dropped at the nominal rate", out.nominal.failed)
	}
	if out.swapping != nil && out.swapping.failed > 0 {
		r.problem("serve: %d requests dropped across swaps", out.swapping.failed)
	}
	if out.maxQPS <= 0 {
		r.problem("serve: no ladder rung carried its rate with p99 <= %dms", p99LimitMs)
	}
	r.logf("serve: %d swaps (%d failed), max qps %.0f over %d rungs", out.swaps, out.swapFails, out.maxQPS, len(out.steps))
}

// endToEnd computes the metrics a user of the pipeline sees.
func (r *runner) endToEnd() map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	put("setup_s", "s", median(r.setupWall))

	var rt []float64
	var rounds int
	var bytes, logical int64
	for _, tr := range r.runs {
		res := tr.res
		rt = append(rt, roundTimes(res)...)
		rounds += len(res.History)
		bytes += tr.wireB
		logical += res.TotalBytesUp + res.TotalBytesDown
	}
	// Figures the traced run reports without a bound (see BENCHMARK.json),
	// printed here too so one untraced command shows every pipeline figure.
	best, final := r.accuracy()
	p99, windows := r.serving.nominal.windowP99(p99Window)
	r.logf("unbounded: time_to_target_s %.4f s (val acc %.2f; %s), best_val_test_acc %.4f fraction, final_test_acc %.4f fraction, serve_p99_ms %.4f ms (median of %d windows of %v), serve_max_qps %.0f req/s",
		median(r.timesToTarget()), r.w.target, fmtSamples(r.timesToTarget()), best, final, p99, len(windows), p99Window, r.serving.maxQPS)
	put("rounds_per_s", "rounds/s", float64(len(rt))/(sum(rt)/1000))
	put("round_p50_ms", "ms", median(rt))
	tv, tp := tail(rt)
	put("round_tail_ms", "ms", tv)
	r.logf("rounds: %d over %d runs; round_tail_ms is p%g", len(rt), len(r.runs), tp)
	wire := float64(logical) / float64(rounds)
	if r.w.wire {
		wire = float64(bytes) / float64(rounds)
		r.logf("wire: %.0f B/round on the loopback conns; fed.Result reports %.0f B/round", wire, float64(logical)/float64(rounds))
	} else {
		r.logf("wire: in-process run, %.0f B/round from fed.Result", wire)
	}
	put("wire_bytes_per_round", "B", wire)
	put("peak_rss_mb", "MB", peakRSSMB())
	put("serve_p50_ms", "ms", r.serving.nominal.p(0.5))
	put("ok_ratio", "fraction", float64(r.attempted-r.failed)/float64(r.attempted))
	return m
}

// accuracy is the median over the training runs of the test accuracy at
// the best validation round and of the final test accuracy.
func (r *runner) accuracy() (best, final float64) {
	var bs, fs []float64
	for _, tr := range r.runs {
		bs = append(bs, tr.res.TestAtBestVal)
		fs = append(fs, tr.res.FinalTestAcc)
	}
	return median(bs), median(fs)
}

// timesToTarget lists time_to_target_s over the untraced training runs that
// reached the workload's target.
func (r *runner) timesToTarget() []float64 {
	var out []float64
	for _, tr := range r.runs {
		if t := timeToTarget(tr.res, r.w.target); !tr.traced && t > 0 {
			out = append(out, t)
		}
	}
	return out
}

// layerMetrics computes the per-layer breakdown from the traced run.
func (r *runner) layerMetrics() map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	for _, k := range []string{"dataset.generate_s", "graph.split_s", "partition.louvain_s", "core.new_client_s"} {
		put(k, "s", median(r.setupTimes[k]))
	}
	put("time_to_target_s", "s", median(r.timesToTarget()))
	best, final := r.accuracy()
	put("best_val_test_acc", "fraction", best)
	put("final_test_acc", "fraction", final)

	var profs []roundProfile
	ckptCalls, ckptSecs := 0, 0.0
	for i, tr := range r.traced {
		runID := fmt.Sprintf("run-%d", i)
		ps := profileRounds(runID, tr.res.History, tr.spans)
		for j, end := range roundEnds(tr.res.History) {
			r.kept = append(r.kept, span{Name: spanRound, Start: tr.res.History[j].Start, End: end, Parent: runID, Round: j})
		}
		r.kept = append(r.kept, tr.spans...)
		profs = append(profs, ps...)
		for _, s := range tr.spans {
			if s.Name == spanCheckpoint {
				ckptCalls++
				ckptSecs += s.End.Sub(s.Start).Seconds()
			}
		}
	}
	n := float64(len(profs))
	perRound := func(f func(p roundProfile) float64) float64 {
		if n == 0 {
			return 0
		}
		t := 0.0
		for _, p := range profs {
			t += f(p)
		}
		return t / n
	}
	busy := func(names ...string) func(roundProfile) float64 {
		return func(p roundProfile) float64 {
			t := 0.0
			for _, name := range names {
				t += p.busy[name]
			}
			return t
		}
	}
	put("core.train_local_s", "s", perRound(busy(spanTrainLocal)))
	put("core.local_means_s", "s", perRound(busy(spanLocalMeans)))
	put("core.central_moments_s", "s", perRound(busy(spanCentral)))
	put("core.eval_s", "s", perRound(busy(spanEvalVal, spanEvalTest)))
	put("core.set_params_s", "s", perRound(busy(spanSetParams)))
	put("core.set_global_stats_s", "s", perRound(busy(spanSetGlobalStats)))
	put("core.calls_per_round", "count", perRound(func(p roundProfile) float64 { return float64(p.calls) }))
	for _, ph := range []string{"broadcast", "moments", "train", "eval"} {
		put("fed.phase."+ph+"_s", "s", perRound(func(p roundProfile) float64 { return p.phase[ph] }))
	}
	put("fed.coord_self_s", "s", perRound(func(p roundProfile) float64 { return p.coordSelf }))
	var strag, recon []float64
	for _, p := range profs {
		strag = append(strag, p.straggler)
		recon = append(recon, p.reconcile*100)
	}
	put("fed.straggler_ratio", "ratio", median(strag))
	worst := quantile(recon, 1)
	put("fed.reconcile_max_pct", "%", worst)
	if n > 0 && worst > 5 {
		r.problem("phase spans plus coordinator self time miss a round's wall time by %.2f%% (limit 5%%)", worst)
	}
	if ckptCalls > 0 {
		put("fed.checkpoint_s", "s", ckptSecs/float64(ckptCalls))
	} else {
		put("fed.checkpoint_s", "s", 0)
	}

	var rounds float64
	for _, tr := range r.traced {
		rounds += float64(len(tr.res.History))
	}
	per := func(v float64) float64 {
		if rounds == 0 {
			return 0
		}
		return v / rounds
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	cnt := func(name string) float64 { return float64(r.probes.rec.Counter(name)) }
	// The in-process codec path books its time in the codec/*_ns counters;
	// the loopback transport's codec work shows as codec spans.
	enc := per((cnt(codec.MetricEncodeNs) + float64(r.probes.sink.encNs.Load())) / 1e9)
	dec := per((cnt(codec.MetricDecodeNs) + float64(r.probes.sink.decNs.Load())) / 1e9)
	put("codec.encode_s", "s", enc)
	put("codec.decode_s", "s", dec)
	transport := 0.0
	if r.w.wire {
		transport = perRound(func(p roundProfile) float64 { return p.transport })
	}
	put("transport.self_s", "s", transport)
	put("codec.up_ratio", "ratio", ratio(cnt(codec.MetricBytesEncoded), cnt(codec.MetricBytesRaw)))
	put("codec.down_ratio", "ratio", ratio(cnt(codec.MetricBytesEncodedDown), cnt(codec.MetricBytesRawDown)))
	put("codec.resets", "count", float64(r.kernels[fed.MetricWireResets]))

	k := func(name string) float64 { return float64(r.kernels[name]) }
	put("ad.tape_ops_per_round", "count", per(k("ad/tape_ops")))
	put("ad.backward_per_round", "count", per(k("ad/backward_passes")))
	put("sparse.spmm_calls_per_round", "count", per(k("sparse/spmm_calls")))
	put("sparse.spmm_gflop_per_round", "GFLOP", per(k("sparse/spmm_flops")/1e9))
	put("mat.pool_hit_ratio", "ratio", ratio(k("mat/pool_hits"), k("mat/pool_hits")+k("mat/pool_misses")))
	put("mat.worker_steal_ratio", "ratio", ratio(k("mat/workers_steals"), k("mat/workers_jobs")))
	put("go.alloc_mb_per_round", "MB", per(r.allocMB))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	put("go.gc_cpu_fraction", "fraction", ms.GCCPUFraction)

	put("serve.load_s", "s", median(r.times["serve.load_s"]))
	put("serve.build_s", "s", median(r.times["serve.build_s"]))
	put("serve.swap_s", "s", median(r.times["serve.swap_s"]))
	put("serve.avg_batch", "count", ratio(cnt(serve.MetricRequests), cnt(serve.MetricBatches)))
	put("serve.cache_hit_ratio", "ratio", ratio(cnt(serve.MetricCacheHits), cnt(serve.MetricCacheHits)+cnt(serve.MetricCacheMisses)))
	p99, windows := r.serving.nominal.windowP99(p99Window)
	r.logf("serve: p99 %s over %d windows of %v", fmtSamples(windows), len(windows), p99Window)
	put("serve_p99_ms", "ms", p99)
	put("serve_max_qps", "req/s", r.serving.maxQPS)
	put("serve.generator_late_ms", "ms", quantile(r.serving.nominal.lateMs, 0.99))
	swapP99 := 0.0
	if r.serving.swapping != nil {
		swapP99, _ = r.serving.swapping.windowP99(time.Second) // one swap per window
	}
	put("serve.swap_p99_ms", "ms", swapP99)
	sent, over := 0, 0
	for _, l := range r.serving.fixed() {
		sent += l.sent
		over += l.overload
	}
	put("serve.overload_ratio", "ratio", ratio(float64(over), float64(sent)))

	var ov []float64
	for i := 1; i+1 < len(r.pairs); i += 2 { // run 0 is the untraced warm-up
		a, b := r.pairs[i], r.pairs[i+1]
		if a.traced == b.traced {
			continue
		}
		if a.traced {
			a, b = b, a
		}
		ov = append(ov, (a.rps-b.rps)/a.rps*100)
	}
	put("obs.tracing_overhead_pct", "%", median(ov))
	put("obs.tracing_overhead_spread_pct", "%", quantile(ov, 0.75)-quantile(ov, 0.25))
	r.logf("obs: tracing overhead per pair %s", fmtSamples(ov))
	return m
}

func fmtSamples(xs []float64) string {
	if len(xs) == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d median %.4g [q1 %.4g, q3 %.4g]", len(xs), median(xs), quantile(xs, 0.25), quantile(xs, 0.75))
}
