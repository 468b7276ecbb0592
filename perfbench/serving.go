package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fedomd/internal/fed"
	"fedomd/internal/graph"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/serve"
	"fedomd/internal/telemetry"
)

// serveSpec is a workload's open-loop serving schedule.
type serveSpec struct {
	// rate is the nominal request rate serve_p50_ms and serve_p99_ms are
	// measured at, req/s.
	rate float64
	// swapEvery reloads and hot-swaps a checkpoint this often; 0 never.
	swapEvery time.Duration
}

// p99LimitMs is the p99 latency a capacity-ladder rung must meet.
const p99LimitMs = 50

// lateShare bounds the generator's median lateness on a passing rung, as a
// share of the rung's p99 limit: a rung whose typical request went out late
// did not offer its nominal rate.
const lateShare = 0.1

// The capacity ladder's rungs are the rates ladderBase·2^(k/ladderGrid) for
// k = 0..ladderTop. serve_max_qps climbs it by doublings until a rung fails,
// then bisects between the highest passing and the lowest failing rung
// down to one grid step (2^(1/16), 4.4%). ladderRungs is the number of
// rungs the stage plan budgets for: the knees seen on 2 cores, 120k–280k
// req/s, take five or six rungs to bracket and four to bisect.
const (
	ladderBase  = 10000.0
	ladderGrid  = 16
	ladderTop   = 10 * ladderGrid // 10.24M req/s, far past any 2-core knee
	ladderRungs = 10
)

func ladderRate(k int) float64 { return ladderBase * math.Pow(2, float64(k)/ladderGrid) }

// zipfS is the Zipf exponent of the node popularity.
const zipfS = 1.1

// model is one servable checkpoint: its path and round, and the class of
// every node under it (the argmax of Inferencer.InferInto), which the
// correctness check compares each answer against.
type model struct {
	path    string
	round   int
	classes []int
}

// loadModel reads a checkpoint and builds its inferencer over g, timing the
// two steps.
func loadModel(path string, g *graph.Graph, times map[string][]float64) (*nn.Inferencer, *fed.Checkpoint, error) {
	t := time.Now()
	ck, err := fed.LoadCheckpointFile(path)
	if err != nil {
		return nil, nil, err
	}
	times["serve.load_s"] = append(times["serve.load_s"], since(t))
	t = time.Now()
	inf, err := serve.InferencerFromCheckpoint(ck, g)
	if err != nil {
		return nil, nil, err
	}
	times["serve.build_s"] = append(times["serve.build_s"], since(t))
	return inf, ck, nil
}

// expectedClasses is the argmax of the inferencer's logits for every node.
func expectedClasses(inf *nn.Inferencer) ([]int, error) {
	n := inf.Nodes()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := mat.New(n, inf.Classes())
	if err := inf.InferInto(out, idx); err != nil {
		return nil, err
	}
	return mat.ArgmaxRows(out), nil
}

// server is a serve.Service plus the models it may answer with.
type server struct {
	svc    *serve.Service
	g      *graph.Graph
	models []*model
}

// newServer loads every checkpoint in paths, records its expected classes,
// and starts a service serving the last one.
func newServer(paths []string, g *graph.Graph, rec *telemetry.Aggregator, times map[string][]float64) (*server, error) {
	s := &server{g: g}
	var last *nn.Inferencer
	var lastRound int
	for _, p := range paths {
		inf, ck, err := loadModel(p, g, times)
		if err != nil {
			return nil, err
		}
		classes, err := expectedClasses(inf)
		if err != nil {
			return nil, err
		}
		s.models = append(s.models, &model{path: p, round: ck.Round, classes: classes})
		last, lastRound = inf, ck.Round
	}
	cfg := serve.Config{CacheSize: 4096}
	if rec != nil {
		cfg.Recorder = rec
	}
	s.svc = serve.New(cfg)
	s.svc.Swap(last, lastRound)
	return s, nil
}

func (s *server) close() { s.svc.Close() }

// swapper reloads the server's checkpoints in turn and hot-swaps each in,
// every interval, until stop is closed. It books the swaps and their
// timings into out.
func (s *server) swapper(every time.Duration, stop <-chan struct{}, out *serveOut) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		m := s.models[i%len(s.models)]
		out.swaps++
		inf, ck, err := loadModel(m.path, s.g, out.times)
		if err != nil || ck.Round != m.round {
			out.swapFails++
			continue
		}
		t := time.Now()
		s.svc.Swap(inf, ck.Round)
		out.times["serve.swap_s"] = append(out.times["serve.swap_s"], since(t))
	}
}

// loadResult is one open-loop step at a fixed rate.
type loadResult struct {
	rate      float64         // nominal, req/s
	achieved  float64         // answered requests per second of schedule
	due       []time.Duration // per request, offset of its due time from the step's start
	latMs     []float64       // per request, from its due time; failures are +Inf
	lateMs    []float64       // generator lateness per request
	sent      int
	failed    int
	overload  int
	incorrect int
	passed    bool // a ladder rung that met the limit; see passes
}

func (l *loadResult) p(q float64) float64 { return quantile(l.latMs, q) }

// windowP99 splits the step into windows of the given width by due time
// and returns the median of the windows' p99 latencies, with the
// per-window values, so a lone stall moves one window, not the figure.
func (l *loadResult) windowP99(width time.Duration) (float64, []float64) {
	var windows []float64
	for lo := 0; lo < len(l.latMs); {
		w := l.due[lo] / width
		hi := lo
		for hi < len(l.latMs) && l.due[hi]/width == w {
			hi++
		}
		windows = append(windows, quantile(l.latMs[lo:hi], 0.99))
		lo = hi
	}
	return median(windows), windows
}

// openLoop issues single-node Classify calls on a Poisson schedule at rate
// for dur, with Zipf-popular nodes, each timed from the moment it was due.
// Every answer is checked against the expected class of the model round it
// reports.
func (s *server) openLoop(rate float64, dur time.Duration, rng *rand.Rand) *loadResult {
	n := s.g.NumNodes()
	perm := rng.Perm(n)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	var offs []time.Duration
	var nodes []int
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			break
		}
		offs = append(offs, time.Duration(t*float64(time.Second)))
		nodes = append(nodes, perm[zipf.Uint64()])
	}
	byRound := map[int][]int{}
	for _, m := range s.models {
		byRound[m.round] = m.classes
	}
	res := &loadResult{rate: rate, sent: len(offs), due: offs, latMs: make([]float64, len(offs)), lateMs: make([]float64, len(offs))}
	var failed, overload, incorrect atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()
	start := time.Now()
	for i, off := range offs {
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		res.lateMs[i] = float64(time.Since(due)) / 1e6
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			r, err := s.svc.Classify(ctx, nodes[i:i+1], false)
			if err != nil {
				failed.Add(1)
				if errors.Is(err, serve.ErrOverloaded) {
					overload.Add(1)
				}
				res.latMs[i] = math.Inf(1)
				return
			}
			res.latMs[i] = float64(time.Since(due)) / 1e6
			if want, ok := byRound[r.ModelRound]; !ok || len(r.Classes) != 1 || r.Classes[0] != want[nodes[i]] {
				incorrect.Add(1)
			}
		}(i, due)
	}
	wg.Wait()
	res.failed, res.overload, res.incorrect = int(failed.Load()), int(overload.Load()), int(incorrect.Load())
	res.achieved = float64(res.sent-res.failed) / dur.Seconds()
	return res
}

// serveOut is the outcome of a serving stage.
type serveOut struct {
	nominal   *loadResult
	swapping  *loadResult // nil when the workload does not swap
	steps     []*loadResult
	maxQPS    float64
	swaps     int
	swapFails int
	times     map[string][]float64 // swap-path layer timings
}

// fixed lists the steps at the nominal rate. Their requests are the
// stage's operations: the ladder rungs probe for the knee and shed load by
// design, so their requests count towards serve_max_qps only.
func (o *serveOut) fixed() []*loadResult {
	if o.swapping == nil {
		return []*loadResult{o.nominal}
	}
	return []*loadResult{o.nominal, o.swapping}
}

// all lists every load step of the stage, ladder rungs included.
func (o *serveOut) all() []*loadResult { return append(o.fixed(), o.steps...) }

// passes reports whether a ladder rung carried its offered rate: p99 within
// the limit (a shed request counts as infinitely late) and the generator on
// time.
func (l *loadResult) passes() bool {
	return l.p(0.99) <= p99LimitMs && quantile(l.lateMs, 0.5) <= lateShare*p99LimitMs
}

// stagePlan sets how long a serving stage spends in each part.
type stagePlan struct {
	nominal  time.Duration // swap-free, at the nominal rate
	swapping time.Duration // at the nominal rate with the swapper running
	step     time.Duration // per ladder rung, swap-free
}

// stage serves the nominal rate swap-free, then — when the spec swaps —
// serves it again while the swapper reloads and swaps checkpoints, then
// searches the capacity ladder. The ladder runs without swaps: a rebuild
// stalls the batcher for tens of milliseconds, which near the knee
// overflows the request queue on some runs and not others, so capacity
// under swaps does not repeat.
func (s *server) stage(spec serveSpec, plan stagePlan, seed int64) *serveOut {
	out := &serveOut{times: map[string][]float64{}}
	rng := rand.New(rand.NewSource(seed))
	out.nominal = s.openLoop(spec.rate, plan.nominal, rng)
	if spec.swapEvery > 0 {
		stop := make(chan struct{})
		swapped := make(chan struct{})
		go func() {
			defer close(swapped)
			s.swapper(spec.swapEvery, stop, out)
		}()
		out.swapping = s.openLoop(spec.rate, plan.swapping, rng)
		close(stop)
		<-swapped
	}
	lo, hi := -1, -1 // grid index of the highest passing and lowest failing rung
	try := func(k int) bool {
		step := s.openLoop(ladderRate(k), plan.step, rng)
		step.passed = step.passes()
		out.steps = append(out.steps, step)
		if step.passed {
			lo, out.maxQPS = k, step.achieved
		} else {
			hi = k
		}
		return step.passed
	}
	for k := 0; k <= ladderTop && try(k); k += ladderGrid {
	}
	for lo >= 0 && hi > lo+1 {
		try((lo + hi) / 2)
	}
	return out
}

// describe prints one line per load step.
func (o *serveOut) describe() []string {
	var lines []string
	for i, l := range o.all() {
		rung := ""
		if i >= len(o.fixed()) {
			rung = " rung: fail"
			if l.passed {
				rung = " rung: pass"
			}
		}
		lines = append(lines, fmt.Sprintf("serve: rate %7.0f/s sent %7d p50 %.3fms p99 %.3fms late-p50 %.3fms late-p99 %.3fms failed %d incorrect %d%s",
			l.rate, l.sent, l.p(0.5), l.p(0.99), quantile(l.lateMs, 0.5), quantile(l.lateMs, 0.99), l.failed, l.incorrect, rung))
	}
	return lines
}
