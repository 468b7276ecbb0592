// Package fed implements the federated-learning simulation runtime: the
// synchronous FedAvg server of paper §3, concurrent local training of the M
// parties (each client trains in its own goroutine within a round), the
// 2-round mean/moment exchange of Algorithm 1, optional auxiliary-state
// aggregation (SCAFFOLD control variates), byte-level communication
// accounting, early stopping with patience, and fault tolerance (failure
// policies, per-call timeouts, quorum guards — see failure.go — and server
// checkpoint/resume, see checkpoint.go).
package fed

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"fedomd/internal/codec"
	"fedomd/internal/mat"
	"fedomd/internal/moments"
	"fedomd/internal/nn"
	"fedomd/internal/obs"
	"fedomd/internal/telemetry"
)

// Client is one federated participant. Implementations own their local graph
// data and model and must be safe to drive from a single goroutine at a time
// (the server never calls a client concurrently with itself).
type Client interface {
	// Name identifies the client in logs and errors.
	Name() string
	// NumSamples is the FedAvg aggregation weight (local training-node count).
	NumSamples() int
	// Params exposes the live local parameter set; the server reads it after
	// local training to aggregate.
	Params() *nn.Params
	// SetParams overwrites the local model with the global weights. The
	// argument must not be retained past the call: the runtime may recycle
	// its backing buffers (all in-tree clients copy via Params.CopyFrom).
	SetParams(global *nn.Params) error
	// TrainLocal runs the negotiated local epochs for one round and returns
	// the final local training loss.
	TrainLocal(round int) (float64, error)
	// EvalVal and EvalTest return (correct, total) on the local masks.
	EvalVal() (int, int)
	EvalTest() (int, int)
}

// MomentClient is implemented by clients that participate in FedOMD's
// 2-round statistics exchange (Algorithm 1 lines 3-18). Layer indices run
// over the hidden representations Z^1..Z^{L-1}.
type MomentClient interface {
	Client
	// LocalMeans returns the per-layer hidden-feature means and the local
	// sample count (Algorithm 1 lines 3-8).
	LocalMeans() (means []*mat.Dense, n int, err error)
	// CentralAroundGlobal returns, per layer, the central moments of orders
	// 2..K computed around the received global means (lines 12-15).
	CentralAroundGlobal(globalMeans []*mat.Dense) (moms [][]*mat.Dense, n int, err error)
	// SetGlobalStats delivers the aggregated global statistics the client
	// uses in its CMD loss during TrainLocal (lines 16-18).
	SetGlobalStats(means []*mat.Dense, central [][]*mat.Dense)
}

// AuxClient is implemented by clients exchanging auxiliary state beyond model
// weights; the server aggregates uploads by simple averaging and broadcasts
// the aggregate (SCAFFOLD's control variates use this).
type AuxClient interface {
	Client
	UploadAux() *nn.Params
	DownloadAux(global *nn.Params) error
}

// Config controls a federated run.
type Config struct {
	// Rounds is the maximum number of communication rounds (the paper's
	// "epoch" with communication interval 1).
	Rounds int
	// Patience stops training after this many rounds without a validation
	// improvement; 0 disables early stopping.
	Patience int
	// Sequential disables concurrent client training (ablation knob).
	Sequential bool
	// EvalEvery controls how often validation/test accuracy is measured;
	// 1 (default when 0) evaluates every round.
	EvalEvery int
	// ClientFraction selects ⌈fraction·M⌉ clients uniformly at random each
	// round to train and aggregate (standard FL partial participation).
	// 0 explicitly means full participation (every client trains every
	// round); otherwise the fraction must lie in (0, 1].
	ClientFraction float64
	// SampleSeed makes the per-round client sampling deterministic.
	SampleSeed int64
	// Recorder receives the run's telemetry: per-round per-phase spans
	// (broadcast, eval, moments, train, aux, aggregate), per-client
	// train-duration histograms, and communication counters. Nil disables
	// telemetry at zero cost.
	Recorder telemetry.Recorder
	// Codec selects the wire codec applied to parameter payloads (see
	// internal/codec): uploads travel encoded against the last broadcast
	// global and are decoded before aggregation, so lossy tiers affect the
	// aggregate exactly as a wire deployment would, and BytesUp/BytesDown
	// report encoded sizes. The zero value keeps the historical raw-float64
	// accounting. Statistics payloads (moments, aux) are not encoded.
	Codec codec.Options

	// Policy selects the failure-handling mode. The zero value, FailFast,
	// aborts the run on the first client error — the historical behavior.
	Policy FailurePolicy
	// ClientTimeout bounds every individual client call (broadcast, eval,
	// statistics, training, upload). An expired call counts as a failure
	// under the active Policy. 0 disables the bound: a hung party then
	// stalls the synchronous round forever.
	ClientTimeout time.Duration
	// MinClients is the quorum: the minimum number of parties that must
	// survive a round for its aggregation to happen. Values below 1 mean 1.
	MinClients int
	// QuorumPolicy selects between aborting the run (default) and skipping
	// the round's aggregation when quorum is lost.
	QuorumPolicy QuorumPolicy
	// MaxStrikes is the number of consecutive failed rounds after which
	// Quarantine benches a party (default 3 when unset).
	MaxStrikes int
	// CooldownRounds is the base bench duration under Quarantine (default
	// 1); it doubles on each re-bench of the same party.
	CooldownRounds int

	// RunID names the run in the Result and in distributed traces; empty
	// generates a fresh random ID so every run is correlatable offline.
	RunID string
	// Tracer emits distributed spans for the run: a root "fed/run" span,
	// per-round "fed/round" spans (published as the tracer's active context
	// so transport and codec spans parent under them), and per-party
	// train/upload spans. Nil disables tracing at zero cost.
	Tracer *obs.Tracer
	// Observer receives one obs.RoundObservation per finished round — the
	// feed for health monitors and the live dashboard. Nil disables it.
	Observer obs.RoundObserver

	// CheckpointEvery snapshots the server state every N completed rounds
	// through CheckpointWriter; 0 disables checkpointing.
	CheckpointEvery int
	// CheckpointWriter persists a snapshot (see FileCheckpointer for the
	// on-disk writer). A writer error aborts the run.
	CheckpointWriter func(*Checkpoint) error
	// Resume restarts a run from a snapshot taken by an identically
	// configured run over the same client fleet (see LoadCheckpointFile).
	Resume *Checkpoint
	// Spec describes the model architecture being trained so checkpoints
	// can be reconstructed standalone (see Checkpoint.Spec). Nil writes
	// header-less snapshots, matching the pre-spec format.
	Spec *ModelSpec

	// Aggregation selects the round body Run's loop runs. The zero value,
	// AggSync, is the barriered round — bit-identical to the historical
	// behavior. AggAsync is the buffered no-barrier mode of async.go:
	// stragglers slow only themselves, and their late updates fold into
	// later rounds with a staleness-discounted weight.
	Aggregation AggregationMode
	// BufferK is the number of arrivals folded per logical round in async
	// mode; 0 defaults to ⌈M/2⌉ over the fleet size M.
	BufferK int
	// MaxStaleness bounds, in logical rounds, how old a buffered update may
	// be at fold time before it is evicted; 0 defaults to 8. Negative
	// values are rejected.
	MaxStaleness int
	// StalenessAlpha is the exponent α of the staleness discount
	// w_i/(1+s)^α applied to every folded quantity; 0 defaults to 1.
	StalenessAlpha float64
	// BufferTimeout bounds how long an async logical round waits for its
	// buffer to reach BufferK before folding whatever arrived (the round is
	// then marked stalled for the health plane). 0 waits until the buffer
	// fills or no dispatched update can arrive anymore.
	BufferTimeout time.Duration
}

// Telemetry metric names emitted by Run. Phase spans are histograms of
// per-round durations in seconds; bytes are monotonic counters.
const (
	MetricRoundSeconds     = "fed/round_seconds"
	MetricBroadcastSeconds = "fed/phase/broadcast_seconds"
	MetricEvalSeconds      = "fed/phase/eval_seconds"
	MetricMomentsSeconds   = "fed/phase/moments_seconds"
	MetricTrainSeconds     = "fed/phase/train_seconds"
	MetricAuxSeconds       = "fed/phase/aux_seconds"
	MetricAggregateSeconds = "fed/phase/aggregate_seconds"
	MetricFinalEvalSeconds = "fed/phase/final_eval_seconds"
	MetricClientTrainSecs  = "fed/client/train_seconds"
	MetricBytesUp          = "fed/bytes_up"
	MetricBytesDown        = "fed/bytes_down"
	MetricRounds           = "fed/rounds"
	MetricActiveClients    = "fed/active_clients"
	MetricValAcc           = "fed/val_acc"
	MetricTestAcc          = "fed/test_acc"
	// Fault-tolerance counters (see failure.go).
	MetricClientDropped     = "fed/client_dropped"
	MetricClientQuarantined = "fed/client_quarantined"
	MetricRoundDegraded     = "fed/round_degraded"
	// MetricNonFiniteScreened counts uploads rejected by the non-finite
	// screen (the health monitor's non_finite rule watches the same events).
	MetricNonFiniteScreened = "fed/non_finite_screened"
	// Async buffered-aggregation telemetry (async.go). Dispatched counts
	// jobs handed to workers; folded/carried/evicted/rejected partition the
	// fates of buffered updates; staleness is a histogram of the applied
	// staleness of folded updates; buffer-wait is the per-round collect
	// latency; stalls counts rounds whose buffer missed K at the deadline.
	MetricAsyncDispatched = "fed/async_dispatched"
	MetricAsyncFolded     = "fed/async_folded"
	MetricAsyncCarried    = "fed/async_carried"
	MetricAsyncEvicted    = "fed/async_evicted"
	MetricAsyncRejected   = "fed/async_rejected"
	MetricAsyncStaleness  = "fed/async_staleness"
	MetricAsyncBufferWait = "fed/async_buffer_wait_seconds"
	MetricAsyncStalls     = "fed/async_stalls"
)

// RoundStats is one row of the training history (Figure 5 data).
type RoundStats struct {
	Round     int
	TrainLoss float64
	ValAcc    float64
	TestAcc   float64
	BytesUp   int64
	BytesDown int64
	// Start and End are the round's wall-clock bounds, for correlating
	// history rows with trace spans from other processes.
	Start, End time.Time
	// Dropped counts parties excluded from this round by the failure
	// policy; Quarantined counts parties benched at its end.
	Dropped     int
	Quarantined int
	// Degraded marks a round that lost at least one party or skipped its
	// aggregation on lost quorum.
	Degraded bool
}

// Result summarises a run.
type Result struct {
	// RunID is the (possibly generated) run identifier; it matches the
	// JSONL trace header so results and traces correlate offline.
	RunID string
	// Start and End are the run's wall-clock bounds.
	Start, End time.Time

	History []RoundStats
	// BestValAcc is the best validation accuracy seen and TestAtBestVal the
	// test accuracy at that round — the reported metric. The final
	// aggregate is scored too: BestRound equals the round count when the
	// final model wins.
	BestValAcc    float64
	TestAtBestVal float64
	BestRound     int
	// FinalValAcc and FinalTestAcc score the last aggregated global model
	// (the one in FinalParams), measured after the round loop.
	FinalValAcc  float64
	FinalTestAcc float64
	// FinalParams is the last aggregated global model.
	FinalParams                  *nn.Params
	TotalBytesUp, TotalBytesDown int64
	// ClientFailures tallies failures per client name over the whole run
	// (nil when no failures were tolerated).
	ClientFailures map[string]int
}

// Run executes federated training over the clients. All clients must be
// non-nil; if every client implements MomentClient the FedOMD statistics
// exchange runs each round. Config.Aggregation picks the round body — the
// barriered phases of syncRound or the buffered engine of async.go —
// and everything around it is one loop shared by both modes.
func Run(cfg Config, clients []Client) (*Result, error) {
	if len(clients) == 0 {
		return nil, errors.New("fed: no clients")
	}
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("fed: Rounds must be positive, got %d", cfg.Rounds)
	}
	if cfg.ClientFraction < 0 || cfg.ClientFraction > 1 {
		return nil, fmt.Errorf("fed: ClientFraction must be 0 (full participation) or in (0, 1], got %v", cfg.ClientFraction)
	}
	if cfg.Policy < FailFast || cfg.Policy > Quarantine {
		return nil, fmt.Errorf("fed: unknown failure policy %d", int(cfg.Policy))
	}
	if err := cfg.Codec.Validate(); err != nil {
		return nil, fmt.Errorf("fed: %w", err)
	}
	if cfg.Aggregation < AggSync || cfg.Aggregation > AggAsync {
		return nil, fmt.Errorf("fed: unknown aggregation mode %d", int(cfg.Aggregation))
	}
	if cfg.BufferK < 0 || cfg.BufferK > len(clients) {
		return nil, fmt.Errorf("fed: BufferK must lie in [0, %d clients], got %d", len(clients), cfg.BufferK)
	}
	if cfg.MaxStaleness < 0 {
		return nil, fmt.Errorf("fed: MaxStaleness must be non-negative, got %d", cfg.MaxStaleness)
	}
	if cfg.StalenessAlpha < 0 {
		return nil, fmt.Errorf("fed: StalenessAlpha must be non-negative, got %v", cfg.StalenessAlpha)
	}
	weights := make([]float64, len(clients))
	for i, c := range clients {
		if c == nil {
			return nil, errors.New("fed: nil client")
		}
		w := c.NumSamples()
		if w <= 0 {
			w = 1 // parties with no training nodes still average in weakly
		}
		weights[i] = float64(w)
	}
	tr := cfg.Tracer
	runID := cfg.RunID
	if runID == "" {
		runID = obs.NewRunID()
	}

	runSpan := tr.Root(obs.SpanRun)
	runSpan.SetAttr(obs.AttrRunID, runID)
	runSpan.SetAttr(obs.AttrRounds, cfg.Rounds)
	runSpan.SetAttr(obs.AttrParties, len(clients))
	runSpan.SetAttr(obs.AttrPolicy, cfg.Policy.String())
	runSpan.SetAttr(obs.AttrCodec, cfg.Codec.Name())
	runSpan.SetAttr(obs.AttrAggregation, cfg.Aggregation.String())
	// Publish the run span before the bootstrap parameter fetch so
	// pre-round work (the initial get_params, codec encodes outside any
	// round) anchors under fed/run rather than starting orphan traces.
	tr.SetActive(runSpan.Context())
	defer func() {
		tr.SetActive(obs.SpanContext{})
		runSpan.End()
	}()

	st := newRunState(&cfg, clients, weights, telemetry.Or(cfg.Recorder))
	st.global = clients[0].Params().Clone()
	st.res = &Result{BestRound: -1, RunID: runID, Start: time.Now()}
	var eng *asyncEngine
	if cfg.Aggregation == AggAsync {
		eng = newAsyncEngine(st)
	}
	start := 0
	if cfg.Resume != nil {
		var err error
		if start, err = st.restore(cfg.Resume, eng); err != nil {
			return nil, err
		}
	}
	err := st.rounds(runSpan.Context(), start, eng)
	if eng != nil {
		eng.shutdown()
	}
	if err != nil {
		return nil, err
	}
	res := st.res
	res.FinalParams = st.global
	res.ClientFailures = st.failures
	if err := st.finalScore(); err != nil {
		return nil, err
	}
	res.End = time.Now()
	return res, nil
}

// roundState is one round's record: the round body fills it and the
// round loop's epilogue books it.
type roundState struct {
	n         int
	ctx       obs.SpanContext // the fed/round span's
	stats     RoundStats
	evaluated bool
	active    int // booked to fed/active_clients: cohort, or async in flight+buffered
	parties   []obs.PartyObservation
	// The async fold's outcome, for the observer.
	folded   int
	staleP99 float64
	stalled  bool
}

// rounds drives rounds [start, Rounds) until patience runs out. Only the
// round body depends on the mode: with eng nil the barriered phases run,
// otherwise the buffered engine dispatches, collects and folds. Round spans,
// quorum-skip handling, history, observer, checkpoint and patience are the
// same for both.
func (st *runState) rounds(parent obs.SpanContext, start int, eng *asyncEngine) error {
	cfg, rec, tr, res := st.cfg, st.rec, st.tr, st.res
	body := st.syncRound
	if eng != nil {
		body = eng.round
	}
	for n := start; n < cfg.Rounds; n++ {
		r := &roundState{n: n, stats: RoundStats{Round: n, Start: time.Now()}}
		roundSpan := telemetry.StartSpan(rec, MetricRoundSeconds)
		rsp := tr.Start(parent, obs.SpanRound)
		rsp.SetAttr(obs.AttrRound, n)
		r.ctx = rsp.Context()
		tr.SetActive(r.ctx)
		resets0 := wireResets.Value()
		st.beginRound()
		st.cs.beginRound()

		if err := body(r); err != nil {
			if !errors.Is(err, ErrQuorumLost) || cfg.QuorumPolicy != QuorumSkip {
				// The run is aborting mid-round: emit the round's trace record
				// (partial rounds still belong in the trace tree) but drop its
				// latency sample — an aborted round is not a round-duration
				// observation.
				roundSpan.Cancel()
				rsp.End()
				return err
			}
			// QuorumSkip: abandon the round's aggregation, keep the
			// previous global model, and carry on.
			r.stats.Degraded = true
		}

		st.endRound(n, &r.stats)
		r.stats.End = time.Now()
		roundSpan.End()
		if eng != nil {
			r.active = eng.nFlight + len(eng.buffer)
		}
		rec.Count(MetricRounds, 1)
		rec.Count(MetricActiveClients, int64(r.active))
		rec.Count(MetricBytesUp, r.stats.BytesUp)
		rec.Count(MetricBytesDown, r.stats.BytesDown)
		res.History = append(res.History, r.stats)
		res.TotalBytesUp += r.stats.BytesUp
		res.TotalBytesDown += r.stats.BytesDown
		if cfg.Observer != nil {
			cfg.Observer.ObserveRound(r.ctx, st.observation(r, eng, resets0))
		}
		rsp.End()

		if cfg.CheckpointEvery > 0 && cfg.CheckpointWriter != nil && (n+1)%cfg.CheckpointEvery == 0 {
			if err := cfg.CheckpointWriter(st.snapshot(n+1, eng)); err != nil {
				return fmt.Errorf("fed: checkpoint after round %d: %w", n, err)
			}
		}
		if cfg.Patience > 0 && st.badRounds >= cfg.Patience {
			break
		}
	}
	return nil
}

// observation is the round's record for the health monitors and the
// dashboard; the buffer and staleness fields are the async engine's.
func (st *runState) observation(r *roundState, eng *asyncEngine, resets0 int64) obs.RoundObservation {
	o := obs.RoundObservation{
		Round:       r.n,
		TrainLoss:   r.stats.TrainLoss,
		ValAcc:      r.stats.ValAcc,
		TestAcc:     r.stats.TestAcc,
		BestValAcc:  st.res.BestValAcc,
		Evaluated:   r.evaluated,
		Degraded:    r.stats.Degraded,
		Dropped:     r.stats.Dropped,
		Quarantined: len(st.clients) - len(st.reachable(r.n+1)), // benched now
		NonFinite:   st.nonFinite,
		CodecResets: int(wireResets.Value() - resets0),
		BytesUp:     r.stats.BytesUp,
		BytesDown:   r.stats.BytesDown,
		Parties:     r.parties,
	}
	if eng != nil {
		o.Async = true
		o.BufferTarget = eng.k
		o.BufferFill = r.folded
		o.BufferStalled = r.stalled
		o.StalenessP99 = r.staleP99
		o.StalenessLimit = float64(eng.maxStale)
	}
	return o
}

// syncRound is the barriered round body (§3): broadcast, evaluation, the
// statistics exchange, local training, aux exchange and FedAvg run one
// after another, each over the whole surviving cohort.
func (st *runState) syncRound(r *roundState) error {
	reach := st.reachable(r.n)
	active := st.cohort(r.n, reach)
	r.active = len(active)
	if err := st.quorum(r.n, len(reach)); err != nil {
		return err
	}
	if err := st.broadcast(r, reach); err != nil {
		return err
	}
	if err := st.quorum(r.n, len(st.aliveOf(active))); err != nil {
		return err
	}
	// Evaluate the freshly broadcast global model.
	if st.evalDue(r.n) {
		st.evalRound(r, st.aliveOf(reach))
	}
	// FedOMD statistics exchange (Algorithm 1 lines 3-18), over the round's
	// active cohort.
	if st.allMoment {
		if _, _, err := st.momentExchange(r, st.aliveOf(active)); err != nil {
			return err
		}
	}

	// Local training, concurrently across surviving active parties.
	sp := telemetry.StartSpan(st.rec, MetricTrainSeconds)
	osp := st.tr.Start(r.ctx, obs.SpanTrain)
	trainIdx := st.aliveOf(active)
	losses := make([]float64, len(trainIdx))
	secs := make([]float64, len(trainIdx))
	errs := forEachClient(len(trainIdx), st.cfg.Sequential, st.policy == FailFast, func(s int) error {
		var err error
		losses[s], secs[s], err = st.train(r.ctx, trainIdx[s], r.n)
		return err
	})
	sp.End()
	osp.End()
	// The observer sees every party that trained, with its drop status at
	// the end of the round.
	defer func() {
		for s, i := range trainIdx {
			r.parties = append(r.parties, obs.PartyObservation{
				Name: st.clients[i].Name(), TrainSeconds: secs[s], Dropped: st.dropped[i]})
		}
	}()
	if st.policy == FailFast {
		if err := collapseErrs(errs, st.cfg.Sequential || len(trainIdx) == 1); err != nil {
			return err
		}
	} else {
		for s, e := range errs {
			if e != nil {
				_ = st.fail(trainIdx[s], e)
			}
		}
	}
	var lossSum, wSum float64
	for s, i := range trainIdx {
		if !st.dropped[i] {
			lossSum += st.weights[i] * losses[s]
			wSum += st.weights[i]
		}
	}
	if wSum > 0 {
		r.stats.TrainLoss = lossSum / wSum
	}

	// Auxiliary state aggregation (e.g. SCAFFOLD control variates).
	sp = telemetry.StartSpan(st.rec, MetricAuxSeconds)
	err := st.auxExchange(st.aliveOf(active), &r.stats)
	sp.End()
	if err != nil {
		return err
	}
	return st.aggregate(r, st.aliveOf(active))
}

// aggregate uploads the survivors' weights and averages them by FedAvg
// (eq. 2 / Algorithm 1 lines 26-29); nn.Average renormalizes their weights.
func (st *runState) aggregate(r *roundState, idx []int) error {
	sp := telemetry.StartSpan(st.rec, MetricAggregateSeconds)
	defer sp.End()
	osp := st.tr.Start(r.ctx, obs.SpanAggregate)
	defer osp.End()
	sets := make([]*nn.Params, 0, len(idx))
	ws := make([]float64, 0, len(idx))
	// Decoded uploads borrow pooled matrices; they are consumed by
	// nn.Average (which writes a fresh aggregate), so release them when the
	// phase ends, on success and error paths alike.
	var pooled []*nn.Params
	defer func() {
		for _, p := range pooled {
			codec.PutParams(p)
		}
	}()
	var ref *nn.Params
	if st.policy != FailFast {
		// Screen shape mismatches per client so one bad upload cannot abort
		// the whole aggregation. FailFast keeps the historical aggregate-time
		// error below.
		ref = st.global
	}
	for _, i := range idx {
		p, enc, up, err := st.upload(r.ctx, i, ref)
		if enc >= 0 {
			pooled = append(pooled, p)
		}
		if err != nil {
			if ferr := st.fail(i, err); ferr != nil {
				return ferr
			}
			continue
		}
		sets = append(sets, p)
		ws = append(ws, st.weights[i])
		r.stats.BytesUp += up
	}
	if err := st.quorum(r.n, len(sets)); err != nil {
		return err
	}
	agg, err := nn.Average(sets, ws)
	if err != nil {
		return fmt.Errorf("fed: aggregation: %w", err)
	}
	st.global = agg
	return nil
}

// cohort returns the round's active cohort: every reachable party, or under
// partial participation the first ⌈fraction·M⌉ reachable parties in
// permutation order (identical to the historical perm[:k] when nothing is
// benched).
func (st *runState) cohort(round int, reach []int) []int {
	f := st.cfg.ClientFraction
	if f <= 0 || f >= 1 {
		return reach
	}
	k := ceilFraction(f, len(st.clients))
	perm := st.sampler.Perm(len(st.clients))
	st.samplerDraws++
	sel := make([]int, 0, k)
	for _, i := range perm {
		if st.benched(i, round) {
			continue
		}
		sel = append(sel, i)
		if len(sel) == k {
			break
		}
	}
	sort.Ints(sel)
	return sel
}

// broadcast installs the global weights (Phase 1/3 of §3) on every indexed
// party and charges the downlink.
func (st *runState) broadcast(r *roundState, idx []int) error {
	sp := telemetry.StartSpan(st.rec, MetricBroadcastSeconds)
	defer sp.End()
	osp := st.tr.Start(r.ctx, obs.SpanBroadcast)
	defer osp.End()
	for _, i := range idx {
		st.touched[i] = true
		if err := st.setGlobal(i, st.global); err != nil {
			if ferr := st.fail(i, err); ferr != nil {
				return ferr
			}
			continue
		}
		n, err := st.cs.broadcast(st.clients[i], i, st.global)
		if err != nil {
			return err
		}
		r.stats.BytesDown += n
	}
	return nil
}

// evalDue reports whether the round scores the global model.
func (st *runState) evalDue(round int) bool {
	return round%st.evalEvery == 0 || round == st.cfg.Rounds-1
}

// evalRound scores the global model installed on the indexed parties and
// tracks the best validation round that patience counts from.
func (st *runState) evalRound(r *roundState, idx []int) {
	sp := telemetry.StartSpan(st.rec, MetricEvalSeconds)
	osp := st.tr.Start(r.ctx, obs.SpanEval)
	r.stats.ValAcc, r.stats.TestAcc = st.evaluate(idx, st.cfg.Sequential)
	sp.End()
	osp.End()
	r.evaluated = true
	st.rec.Gauge(MetricValAcc, r.stats.ValAcc)
	st.rec.Gauge(MetricTestAcc, r.stats.TestAcc)
	if res := st.res; r.stats.ValAcc > res.BestValAcc || res.BestRound < 0 {
		res.BestValAcc = r.stats.ValAcc
		res.TestAtBestVal = r.stats.TestAcc
		res.BestRound = r.n
		st.badRounds = 0
	} else {
		st.badRounds++
	}
}

// finalScore installs and scores the last aggregated global model: the last
// nn.Average output was never installed or evaluated inside the round loop,
// so without this pass the best model could silently be missed. It is a
// scoring pass outside the round accounting — no history row, no byte
// counters.
func (st *runState) finalScore() error {
	res := st.res
	sp := telemetry.StartSpan(st.rec, MetricFinalEvalSeconds)
	finalIdx := make([]int, 0, len(st.clients))
	for i := range st.clients {
		c := st.clients[i]
		if err := st.call(i, func() error { return c.SetParams(st.global) }); err != nil {
			if st.policy == FailFast {
				sp.End()
				return fmt.Errorf("fed: final broadcast to %s: %w", c.Name(), err)
			}
			continue // score the final model on the parties that can hold it
		}
		finalIdx = append(finalIdx, i)
	}
	if len(finalIdx) > 0 {
		res.FinalValAcc, res.FinalTestAcc = st.evaluate(finalIdx, st.cfg.Sequential)
	}
	sp.End()
	if res.FinalValAcc > res.BestValAcc || res.BestRound < 0 {
		res.BestValAcc = res.FinalValAcc
		res.TestAtBestVal = res.FinalTestAcc
		res.BestRound = 0
		if n := len(res.History); n > 0 {
			res.BestRound = res.History[n-1].Round + 1
		}
	}
	return nil
}

// RunLocalOnly trains every client in isolation (the LocGCN baseline): no
// weight exchange, accuracy is the sample-weighted average of the local
// models, mirroring the paper's "averages the accuracy across various
// parties".
func RunLocalOnly(cfg Config, clients []Client) (*Result, error) {
	if len(clients) == 0 {
		return nil, errors.New("fed: no clients")
	}
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("fed: Rounds must be positive, got %d", cfg.Rounds)
	}
	st := newRunState(&Config{Rounds: cfg.Rounds, Sequential: cfg.Sequential}, clients, nil, telemetry.Or(nil))
	st.res = &Result{BestRound: -1}
	all := st.reachable(0) // nothing is benched without a failure policy
	for round := 0; round < cfg.Rounds; round++ {
		r := &roundState{n: round, stats: RoundStats{Round: round}}
		losses := make([]float64, len(clients))
		if err := collapseErrs(forEachClient(len(clients), cfg.Sequential, true, func(i int) error {
			c := clients[i]
			loss, err := c.TrainLocal(round)
			if err != nil {
				return fmt.Errorf("fed: local client %s round %d: %w", c.Name(), round, err)
			}
			losses[i] = loss
			return nil
		}), cfg.Sequential || len(clients) == 1); err != nil {
			return nil, err
		}
		for _, l := range losses {
			r.stats.TrainLoss += l
		}
		r.stats.TrainLoss /= float64(len(clients))
		st.evalRound(r, all)
		st.res.History = append(st.res.History, r.stats)
		if cfg.Patience > 0 && st.badRounds >= cfg.Patience {
			break
		}
	}
	res := st.res
	// Local-only training evaluates after every round, so the last row
	// already scores the final models.
	if n := len(res.History); n > 0 {
		res.FinalValAcc = res.History[n-1].ValAcc
		res.FinalTestAcc = res.History[n-1].TestAcc
	}
	res.FinalParams = clients[0].Params().Clone()
	return res, nil
}

// momentExchange runs Algorithm 1's two upload/download rounds over the
// indexed clients and installs the global statistics on the survivors. A
// party failing either stage — including a non-finite upload — is handled
// by the failure policy, and both aggregations renormalize over whoever is
// left. It charges the round's bytes and returns the aggregated global
// statistics (nil when no party survived a stage) — the async engine
// bootstraps its stats state from one synchronous exchange; the sync round
// ignores them.
func (st *runState) momentExchange(r *roundState, idx []int) (gMeans []*mat.Dense, gCentral [][]*mat.Dense, err error) {
	sp := telemetry.StartSpan(st.rec, MetricMomentsSeconds)
	defer sp.End()
	osp := st.tr.Start(r.ctx, obs.SpanMoments)
	defer osp.End()
	m := len(idx)
	if m == 0 {
		return nil, nil, nil
	}
	allMeans := make([][]*mat.Dense, m) // [slot][layer]
	counts := make([]int, m)
	ok := make([]bool, m)
	for s, i := range idx {
		means, n, err := st.localMeans(i)
		if err != nil {
			if ferr := st.fail(i, err); ferr != nil {
				return nil, nil, ferr
			}
			continue
		}
		allMeans[s], counts[s], ok[s] = means, n, true
		r.stats.BytesUp += bytesOfVecs(means) + 8
	}
	layers := -1
	for s := range idx {
		if !ok[s] {
			continue
		}
		if layers < 0 {
			layers = len(allMeans[s])
			continue
		}
		if len(allMeans[s]) != layers {
			mismatch := fmt.Errorf("fed: client %s reports %d layers, want %d", st.clients[idx[s]].Name(), len(allMeans[s]), layers)
			if ferr := st.fail(idx[s], mismatch); ferr != nil {
				return nil, nil, ferr
			}
			ok[s] = false
		}
	}
	if layers < 0 {
		return nil, nil, nil // no party survived the first stage
	}
	globalMeans := make([]*mat.Dense, layers)
	for l := 0; l < layers; l++ {
		var layerMeans []*mat.Dense
		var cnt []int
		for s := range idx {
			if ok[s] {
				layerMeans = append(layerMeans, allMeans[s][l])
				cnt = append(cnt, counts[s])
			}
		}
		gm, err := moments.AggregateMeans(layerMeans, cnt)
		if err != nil {
			return nil, nil, fmt.Errorf("fed: aggregating layer %d means: %w", l, err)
		}
		globalMeans[l] = gm
	}
	// Download global means, upload moments centred on them.
	allMoms := make([][][]*mat.Dense, m) // [slot][layer][order]
	for s, i := range idx {
		if !ok[s] {
			continue
		}
		r.stats.BytesDown += bytesOfVecs(globalMeans)
		moms, n, err := st.centralMoments(i, globalMeans)
		if err != nil {
			if ferr := st.fail(i, err); ferr != nil {
				return nil, nil, ferr
			}
			ok[s] = false
			continue
		}
		allMoms[s], counts[s] = moms, n
		r.stats.BytesUp += bytesOfMoms(moms) + 8
	}
	survivors := 0
	for s := range idx {
		if !ok[s] {
			continue
		}
		if len(allMoms[s]) != layers {
			mismatch := fmt.Errorf("fed: client %s moment layers %d, want %d", st.clients[idx[s]].Name(), len(allMoms[s]), layers)
			if ferr := st.fail(idx[s], mismatch); ferr != nil {
				return nil, nil, ferr
			}
			ok[s] = false
			continue
		}
		survivors++
	}
	if survivors == 0 {
		return globalMeans, nil, nil
	}
	globalCentral := make([][]*mat.Dense, layers)
	for l := 0; l < layers; l++ {
		perClient := make([][]*mat.Dense, 0, survivors)
		cnt := make([]int, 0, survivors)
		for s := range idx {
			if ok[s] {
				perClient = append(perClient, allMoms[s][l])
				cnt = append(cnt, counts[s])
			}
		}
		gc, err := moments.AggregateCentral(perClient, cnt)
		if err != nil {
			return nil, nil, fmt.Errorf("fed: aggregating layer %d moments: %w", l, err)
		}
		globalCentral[l] = gc
	}
	for s, i := range idx {
		if !ok[s] {
			continue
		}
		if err := st.setGlobalStats(i, globalMeans, globalCentral); err != nil {
			if ferr := st.fail(i, err); ferr != nil {
				return nil, nil, ferr
			}
			continue
		}
		r.stats.BytesDown += bytesOfMoms(globalCentral)
	}
	return globalMeans, globalCentral, nil
}

// auxExchange averages any auxiliary uploads from the indexed clients and
// redistributes them, excluding parties the failure policy drops mid-phase.
func (st *runState) auxExchange(idx []int, stats *RoundStats) error {
	var auxSets []*nn.Params
	var auxIdx []int
	for _, i := range idx {
		aux, err := st.uploadAux(i)
		if err != nil {
			if ferr := st.fail(i, err); ferr != nil {
				return ferr
			}
			continue
		}
		if aux == nil {
			continue
		}
		auxSets = append(auxSets, aux)
		auxIdx = append(auxIdx, i)
		stats.BytesUp += int64(aux.Bytes())
	}
	if len(auxSets) == 0 {
		return nil
	}
	ones := make([]float64, len(auxSets))
	for i := range ones {
		ones[i] = 1
	}
	globalAux, err := nn.Average(auxSets, ones)
	if err != nil {
		return fmt.Errorf("fed: aux aggregation: %w", err)
	}
	for _, i := range auxIdx {
		n, err := st.downloadAux(i, globalAux)
		if err != nil {
			if ferr := st.fail(i, err); ferr != nil {
				return ferr
			}
			continue
		}
		stats.BytesDown += n
	}
	return nil
}

// The per-party protocol steps below are shared by the sync phases and the
// async job. Each runs one client call under runState.call, screens what
// comes back, and wraps a failure in the error text the failure policy and
// the logs report; the caller decides whether that failure drops the party
// now (sync) or travels with the job's update (async).

// setGlobal installs global on party i.
func (st *runState) setGlobal(i int, global *nn.Params) error {
	c := st.clients[i]
	if err := st.call(i, func() error { return c.SetParams(global) }); err != nil {
		return fmt.Errorf("fed: broadcast to %s: %w", c.Name(), err)
	}
	return nil
}

// localMeans fetches party i's per-layer hidden means and sample count
// (Algorithm 1 lines 3-8).
func (st *runState) localMeans(i int) ([]*mat.Dense, int, error) {
	mc := st.clients[i].(MomentClient)
	var means []*mat.Dense
	var n int
	err := st.call(i, func() error {
		var e error
		means, n, e = mc.LocalMeans()
		return e
	})
	if err == nil && !finiteVecs(means) {
		err = ErrNonFinite
	}
	if err != nil {
		return nil, 0, fmt.Errorf("fed: means from %s: %w", mc.Name(), err)
	}
	return means, n, nil
}

// centralMoments fetches party i's central moments around the global means
// (lines 12-15).
func (st *runState) centralMoments(i int, globalMeans []*mat.Dense) ([][]*mat.Dense, int, error) {
	mc := st.clients[i].(MomentClient)
	var moms [][]*mat.Dense
	var n int
	err := st.call(i, func() error {
		var e error
		moms, n, e = mc.CentralAroundGlobal(globalMeans)
		return e
	})
	if err == nil && !finiteMoms(moms) {
		err = ErrNonFinite
	}
	if err != nil {
		return nil, 0, fmt.Errorf("fed: moments from %s: %w", mc.Name(), err)
	}
	return moms, n, nil
}

// setGlobalStats delivers the global statistics to party i (lines 16-18).
func (st *runState) setGlobalStats(i int, means []*mat.Dense, central [][]*mat.Dense) error {
	mc := st.clients[i].(MomentClient)
	if err := st.call(i, func() error {
		mc.SetGlobalStats(means, central)
		return nil
	}); err != nil {
		return fmt.Errorf("fed: global stats to %s: %w", mc.Name(), err)
	}
	return nil
}

// train runs party i's local epochs under a client_train span and returns
// the local loss and the call's wall time. A failed train cancels its
// latency sample: fed/client/train_seconds books only trains that finished.
func (st *runState) train(ctx obs.SpanContext, i, round int) (loss, secs float64, err error) {
	c := st.clients[i]
	clientSpan := telemetry.StartSpan(st.rec, MetricClientTrainSecs)
	tsp := st.tr.Start(ctx, obs.SpanClientTrain)
	tsp.SetAttr(obs.AttrParty, c.Name())
	t0 := time.Now()
	var l float64
	err = st.call(i, func() error {
		var e error
		l, e = c.TrainLocal(round)
		return e
	})
	secs = time.Since(t0).Seconds()
	tsp.End()
	if err != nil {
		clientSpan.Cancel()
		return 0, secs, fmt.Errorf("fed: client %s round %d: %w", c.Name(), round, err)
	}
	clientSpan.End()
	return l, secs, nil
}

// upload fetches party i's trained parameters through the codec seam under
// a client_upload span and screens them for non-finite values and, when ref
// is non-nil, for shape compatibility with ref. enc ≥ 0 means p is a pooled
// decode of an enc-byte frame, which the caller releases even when err is
// set; up is the byte count the upload charges.
func (st *runState) upload(ctx obs.SpanContext, i int, ref *nn.Params) (p *nn.Params, enc, up int64, err error) {
	c := st.clients[i]
	usp := st.tr.Start(ctx, obs.SpanClientUpload)
	usp.SetAttr(obs.AttrParty, c.Name())
	var raw *nn.Params
	err = st.call(i, func() error { raw = c.Params(); return nil })
	enc = -1
	if err == nil {
		// Round-trip the upload through the codec: the server aggregates
		// what the wire delivers, so lossy tiers shape the aggregate here
		// exactly as in deployment.
		p, enc, err = st.cs.upload(c, i, raw)
	}
	if err == nil && !finiteParams(p) {
		err = ErrNonFinite
	}
	if err == nil && ref != nil {
		err = ref.Compatible(p)
	}
	if err != nil {
		usp.SetAttr(obs.AttrErr, err.Error())
		usp.End()
		return p, enc, 0, fmt.Errorf("fed: upload from %s: %w", c.Name(), err)
	}
	up = int64(p.Bytes())
	if enc >= 0 {
		up = enc
		usp.SetAttr(obs.AttrBytesEnc, enc)
	}
	usp.End()
	return p, enc, up, nil
}

// uploadAux fetches party i's auxiliary state; nil when the party has none.
func (st *runState) uploadAux(i int) (*nn.Params, error) {
	ac, ok := st.clients[i].(AuxClient)
	if !ok {
		return nil, nil
	}
	var aux *nn.Params
	err := st.call(i, func() error { aux = ac.UploadAux(); return nil })
	if err == nil && aux != nil && !finiteParams(aux) {
		err = ErrNonFinite
	}
	if err != nil {
		return nil, fmt.Errorf("fed: aux upload from %s: %w", ac.Name(), err)
	}
	return aux, nil
}

// downloadAux installs the aggregated auxiliary state on party i and
// returns the bytes charged (none for a party without aux state).
func (st *runState) downloadAux(i int, aux *nn.Params) (int64, error) {
	ac, ok := st.clients[i].(AuxClient)
	if !ok {
		return 0, nil
	}
	if err := st.call(i, func() error { return ac.DownloadAux(aux) }); err != nil {
		return 0, fmt.Errorf("fed: aux download to %s: %w", ac.Name(), err)
	}
	return int64(aux.Bytes()), nil
}

// forEachClient runs f over n client slots, concurrently unless sequential,
// with at most GOMAXPROCS workers. It returns one error per slot so callers
// can attribute each failure to the party that caused it (the DropRound and
// Quarantine policies need the index, not just a joined error). In
// sequential mode stopEarly short-circuits at the first failure — the
// historical fail-fast order; concurrent mode always drives every client.
func forEachClient(n int, sequential, stopEarly bool, f func(int) error) []error {
	errs := make([]error, n)
	if sequential || n == 1 {
		for i := range errs {
			errs[i] = f(i)
			if errs[i] != nil && stopEarly {
				break
			}
		}
		return errs
	}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	return errs
}

// ceilFraction returns ⌈f·m⌉ clamped to [1, m] — the partial-participation
// cohort size. Products that land within one ulp-scale tolerance of an
// integer are snapped to it first, so mathematically exact cases like
// f = 1/3, m = 3 (product 0.999…) or f = 0.1, m = 30 (product 3.000…04)
// do not gain a spurious extra client from float rounding.
func ceilFraction(f float64, m int) int {
	p := f * float64(m)
	if r := math.Round(p); r > 0 && math.Abs(p-r) < 1e-9*r {
		p = r
	}
	k := int(math.Ceil(p))
	if k < 1 {
		k = 1
	}
	if k > m {
		k = m
	}
	return k
}

func bytesOfVecs(vs []*mat.Dense) int64 {
	var total int64
	for _, v := range vs {
		total += int64(8 * v.Rows() * v.Cols())
	}
	return total
}

// bytesOfMoms sizes [layer][order] central moments.
func bytesOfMoms(ms [][]*mat.Dense) int64 {
	var total int64
	for _, layer := range ms {
		total += bytesOfVecs(layer)
	}
	return total
}
