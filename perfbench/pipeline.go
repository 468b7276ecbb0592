package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fedomd/internal/codec"
	"fedomd/internal/core"
	"fedomd/internal/dataset"
	"fedomd/internal/fed"
	"fedomd/internal/graph"
	"fedomd/internal/partition"
)

// workload is one named benchmark input: a dataset recipe, a federation
// shape and a serving schedule. Every workload runs the whole pipeline —
// generate, split, Louvain, clients, FedOMD rounds, checkpoint, load,
// serve — and differs in where the time goes.
type workload struct {
	name    string
	data    func(smoke bool) (dataset.Config, bool) // config, streaming generator
	parties int
	hidden  int
	// sequential trains parties one after another instead of concurrently.
	sequential bool
	// wire serves the parties over loopback TCP with the q8 codec.
	wire bool
	// rounds is the length of one measured training run; setupRounds is the
	// length of the training run the set-up makes (serve-cora-swap only).
	rounds, setupRounds int
	ckptEvery           int
	// target is the validation accuracy time_to_target_s waits for; floor
	// is the lowest test accuracy the correctness check accepts (0: none).
	target, floor float64
	serve         serveSpec
}

func coraConfig(nodes int) func(bool) (dataset.Config, bool) {
	return func(smoke bool) (dataset.Config, bool) {
		cfg, err := dataset.Preset(dataset.Cora)
		if err != nil {
			panic(err) // the preset is compiled in
		}
		if nodes != cfg.Nodes {
			cfg.Edges = cfg.Edges * nodes / cfg.Nodes
			cfg.Nodes = nodes
		}
		if smoke {
			cfg = dataset.Scaled(cfg, 8)
		}
		return cfg, false
	}
}

func sbmConfig(smoke bool) (dataset.Config, bool) {
	cfg := dataset.Config{
		Name: "sbm-200k", Nodes: 200_000, Edges: 1_600_000, Classes: 8, Features: 32,
		CommunitiesPerClass: 4, Homophily: 0.85, ActiveFeatures: 6, SignalRatio: 0.9,
	}
	if smoke {
		cfg.Nodes, cfg.Edges = 4000, 32_000
	}
	return cfg, true
}

// BENCHMARK.json says why each workload is in the benchmark. Every one runs
// the whole pipeline; the fields set where its time goes.
var workloads = []*workload{
	// The paper's setting. Client compute is ~99% of a round, so codec and
	// transport changes should not move it.
	{
		name:    "cora-m3",
		data:    coraConfig(2708),
		parties: 3, hidden: 64, rounds: 40, ckptEvery: 40,
		target: 0.9, floor: 0.8,
		serve: serveSpec{rate: 5000},
	},
	// A quarter of Cora's nodes but all 1433 features: each party does a
	// quarter of a Cora party's compute but ships full-size weights, so
	// codec, transport and checkpoint are about a third of a round.
	{
		name:    "wire-q8-m2",
		data:    coraConfig(677),
		parties: 2, hidden: 64, wire: true, rounds: 40, ckptEvery: 10,
		target: 0.8, floor: 0.6,
		serve: serveSpec{rate: 5000},
	},
	// cmd/scaledemo's graph at a fifth of its nodes: a Louvain-heavy set-up,
	// SpMM-bound rounds over narrow features, and a 200k-node serving set.
	{
		name:    "sbm-200k-m8",
		data:    sbmConfig,
		parties: 8, hidden: 16, sequential: true, rounds: 6, ckptEvery: 6,
		// Six rounds leave FedOMD unconverged on this graph: on some seeds the
		// model still predicts the majority class (test accuracy ~0.14 with
		// 8 classes), so no accuracy floor holds on every seed and the
		// training check rests on the falling training loss.
		target: 0.5,
		serve:  serveSpec{rate: 5000},
	},
	// The set-up trains the model; the window serves it while a checkpoint
	// is reloaded and hot-swapped in every second.
	{
		name:    "serve-cora-swap",
		data:    coraConfig(2708),
		parties: 3, hidden: 64, setupRounds: 30, ckptEvery: 15,
		target: 0.9, floor: 0.8,
		serve: serveSpec{rate: 10000, swapEvery: time.Second},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fleet is a generated, split and partitioned dataset plus its clients.
type fleet struct {
	g       *graph.Graph
	parties []partition.Party
	clients []*core.Client
	cfg     core.Config
	seed    int64
	used    bool // clients have trained and must be rebuilt before the next run
}

// buildFleet runs the set-up layers, timing each into times.
func (w *workload) buildFleet(seed int64, smoke bool, times map[string]float64) (*fleet, error) {
	dcfg, stream := w.data(smoke)
	t := time.Now()
	var g *graph.Graph
	var err error
	if stream {
		g, err = dataset.GenerateStream(dcfg, seed)
	} else {
		g, err = dataset.Generate(dcfg, seed)
	}
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	times["dataset.generate_s"] += since(t)

	// A 5% label rate, not the paper's 1%: at 1% FedOMD's validation
	// accuracy is non-monotone and seed-dominated over the rounds a run
	// affords, so accuracy-derived figures would not repeat across seeds.
	t = time.Now()
	if err := g.Split(rand.New(rand.NewSource(seed+1)), 0.05, 0.2, 0.2); err != nil {
		return nil, fmt.Errorf("split: %w", err)
	}
	times["graph.split_s"] += since(t)

	t = time.Now()
	parties, err := partition.LouvainParties(g, w.parties, 1.0, rand.New(rand.NewSource(seed+2)))
	if err != nil {
		return nil, fmt.Errorf("louvain: %w", err)
	}
	times["partition.louvain_s"] += since(t)

	f := &fleet{g: g, parties: parties, cfg: core.DefaultConfig(), seed: seed}
	f.cfg.Hidden = w.hidden
	t = time.Now()
	if err := f.newClients(); err != nil {
		return nil, err
	}
	times["core.new_client_s"] += since(t)
	return f, nil
}

// newClients builds a fresh FedOMD client per non-empty party, so every
// training run starts from the same initial models.
func (f *fleet) newClients() error {
	f.clients = f.clients[:0]
	for i, p := range f.parties {
		if p.Graph.NumNodes() == 0 {
			continue
		}
		c, err := core.NewClient(fmt.Sprintf("party-%d", i), p.Graph, f.cfg, f.seed+10+int64(i))
		if err != nil {
			return fmt.Errorf("new client: %w", err)
		}
		f.clients = append(f.clients, c)
	}
	if len(f.clients) == 0 {
		return errors.New("partition produced no non-empty parties")
	}
	return nil
}

func (f *fleet) spec() *fed.ModelSpec {
	return &fed.ModelSpec{
		SpecVersion: fed.SpecVersion, Model: "fedomd",
		Features: f.g.NumFeatures(), Classes: f.g.NumClasses,
		Hidden: f.cfg.Hidden, HiddenLayers: f.cfg.HiddenLayers, Dropout: f.cfg.Dropout,
		SpectralBound: true,
	}
}

// trainRun is one measured training run.
type trainRun struct {
	res    *fed.Result
	wall   float64 // whole fed.Run call, s
	wireB  int64   // bytes on the benchmark's loopback conns, both directions
	traced bool
	spans  []span
}

// train runs one FedOMD training run over fresh clients. With probes set,
// every client is wrapped in the timing decorator, the checkpoint writer in
// a timer, and the program's recorder and tracer are attached.
func (w *workload) train(f *fleet, rounds int, ckpt func(*fed.Checkpoint) error, p probes) (*trainRun, error) {
	if f.used {
		if err := f.newClients(); err != nil {
			return nil, err
		}
	}
	f.used = true
	clients := make([]fed.Client, len(f.clients))
	for i, c := range f.clients {
		if p.log != nil {
			clients[i] = &tracedClient{c: c, log: p.log}
		} else {
			clients[i] = c
		}
	}
	every := w.ckptEvery
	if rounds%every != 0 {
		every = rounds // shortened runs still checkpoint their final model
	}
	cfg := fed.Config{
		Rounds: rounds, Sequential: w.sequential, Spec: f.spec(),
		Recorder: p.recorder(), Tracer: p.tracer,
		CheckpointEvery: every, CheckpointWriter: timedCheckpointer(ckpt, p.log),
	}
	t := time.Now()
	if !w.wire {
		res, err := fed.Run(cfg, clients)
		return &trainRun{res: res, wall: since(t)}, err
	}
	q8, err := codec.Parse("q8", 0, 0)
	if err != nil {
		return nil, err
	}
	cfg.Codec = q8
	res, bytes, err := runLoopback(cfg, clients)
	return &trainRun{res: res, wall: since(t), wireB: bytes}, err
}

// runLoopback serves each party over its own loopback TCP connection and
// drives the run with fed.RunDistributedOpts. Parties are dialled one at a
// time in a fixed order, so the coordinator numbers them the same way on
// every run and the run is reproducible.
func runLoopback(cfg fed.Config, parties []fed.Client) (*fed.Result, int64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	defer ln.Close()
	var rx, tx atomic.Int64
	var conns []net.Conn
	var wg sync.WaitGroup
	errs := make([]error, len(parties))
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
		wg.Wait()
	}
	for i, p := range parties {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			closeAll()
			return nil, 0, err
		}
		cc := countingConn{Conn: conn, rx: &rx, tx: &tx}
		conns = append(conns, cc)
		wg.Add(1)
		go func(i int, p fed.Client) {
			defer wg.Done()
			errs[i] = fed.ServeClientConnOpts(cc, p, fed.ServeOptions{Recorder: cfg.Recorder, Tracer: cfg.Tracer})
		}(i, p)
	}
	res, err := fed.RunDistributedOpts(cfg, ln, len(parties), fed.TransportOptions{Recorder: cfg.Recorder, Codec: cfg.Codec, Tracer: cfg.Tracer})
	closeAll()
	if err != nil {
		return nil, 0, err
	}
	if perr := errors.Join(errs...); perr != nil {
		return nil, 0, fmt.Errorf("party: %w", perr)
	}
	return res, rx.Load() + tx.Load(), nil
}

// roundEnds returns where each round of a run ends: at the next round's
// start, so work between rounds belongs to the round before; the last
// round ends at its own end.
func roundEnds(h []fed.RoundStats) []time.Time {
	ends := make([]time.Time, len(h))
	for r := range h {
		ends[r] = h[r].End
		if r+1 < len(h) {
			ends[r] = h[r+1].Start
		}
	}
	return ends
}

// roundTimes returns the round latencies of a run in ms.
func roundTimes(res *fed.Result) []float64 {
	out := make([]float64, 0, len(res.History))
	for r, end := range roundEnds(res.History) {
		out = append(out, end.Sub(res.History[r].Start).Seconds()*1000)
	}
	return out
}

// timeToTarget is the wall time from the first round's start to the start
// of the first round whose evaluated global model reached target (the model
// evaluated at a round's start was produced by the round before); -1 when
// the target is never reached.
func timeToTarget(res *fed.Result, target float64) float64 {
	for _, h := range res.History[1:] {
		if h.ValAcc >= target {
			return h.Start.Sub(res.History[0].Start).Seconds()
		}
	}
	if res.FinalValAcc >= target {
		last := res.History[len(res.History)-1]
		return last.End.Sub(res.History[0].Start).Seconds()
	}
	return -1
}

// minLossDrop is the least share by which the training loss of a run's last
// round must fall below its first round's. On sbm-200k-m8, the slowest
// learner, it fell 1.4–2.3% over the traced run's three rounds and 2.9–5.1%
// over six on the seeds tried; a model whose updates do not reach its
// weights stays at its first-round loss.
const minLossDrop = 0.005

// checkTraining applies the training correctness checks: every round
// complete, every accuracy finite and above floor, and the training loss
// falling by at least lossDrop. Smoke runs pass zeros: their tiny graphs
// and runs are too small to learn reliably.
func checkTraining(res *fed.Result, floor, lossDrop float64) error {
	if len(res.History) == 0 {
		return errors.New("the run has no rounds")
	}
	for _, h := range res.History {
		if h.Degraded || h.Dropped > 0 {
			return fmt.Errorf("round %d degraded (%d parties dropped)", h.Round, h.Dropped)
		}
	}
	for name, v := range map[string]float64{
		"best val": res.BestValAcc, "test at best val": res.TestAtBestVal,
		"final val": res.FinalValAcc, "final test": res.FinalTestAcc,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s accuracy is %v", name, v)
		}
	}
	if res.TestAtBestVal < floor || res.FinalTestAcc < floor {
		return fmt.Errorf("test accuracy %.4f (at best val) / %.4f (final) below floor %.2f",
			res.TestAtBestVal, res.FinalTestAcc, floor)
	}
	first, last := res.History[0].TrainLoss, res.History[len(res.History)-1].TrainLoss
	if !(last <= first*(1-lossDrop)) {
		return fmt.Errorf("training loss went from %.4f to %.4f over %d rounds, want a fall of at least %.0f%%",
			first, last, len(res.History), lossDrop*100)
	}
	return nil
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
