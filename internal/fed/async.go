package fed

// async.go implements the buffered asynchronous aggregation mode
// (Config.Aggregation == AggAsync): a FedBuff-style no-barrier round body of
// Run's loop, in which the coordinator dispatches training jobs to every
// idle sampled party, collects the first BufferK arrivals of each logical
// round, and folds them into the global model with staleness-discounted
// weights w_i/(1+s)^α, where s is the number of logical rounds elapsed since
// the update's global was dispatched. Late arrivals are not discarded at a
// barrier — they fold into the next round's buffer — and the paper's
// central-moment aggregation decomposes into weighted sums, so the same
// discounted fold applies exactly to the mean/moment statistics and to aux
// state. Updates older than MaxStaleness at fold time are evicted (their
// party takes a policy failure, and the party's uplink codec residuals are
// dropped via Encoder.Reset since the encoded frame was never applied); a
// party benched by Quarantine while its update was in flight has that update
// rejected at fold time. The DropRound/Quarantine/quorum machinery of
// failure.go composes unchanged.
//
// Concurrency model: one worker goroutine per in-flight job, running the same
// per-party steps as the sync round (busy flag + per-call timeout via
// runState.call). The coordinator alone touches runState's per-round
// bookkeeping, the buffer, and the codec per-party reset; globals and
// statistics snapshots handed to workers are immutable once published (every
// fold builds fresh matrices). A party is redispatched only when it is
// neither in flight nor holding a buffered update, so its uplink encoder is
// never used concurrently with a fold-time Reset.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"fedomd/internal/codec"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/obs"
	"fedomd/internal/telemetry"
)

// AggregationMode selects Run's round topology.
type AggregationMode int

const (
	// AggSync is the barriered synchronous loop — the zero value,
	// bit-identical to the historical behavior.
	AggSync AggregationMode = iota
	// AggAsync is the buffered no-barrier mode implemented in this file.
	AggAsync
)

// String returns the flag-friendly name of the mode.
func (m AggregationMode) String() string {
	switch m {
	case AggSync:
		return "sync"
	case AggAsync:
		return "async"
	}
	return fmt.Sprintf("AggregationMode(%d)", int(m))
}

// ParseAggregation maps a flag value to a mode, case-insensitively; the
// empty string selects the synchronous default.
func ParseAggregation(s string) (AggregationMode, error) {
	switch strings.ToLower(s) {
	case "", "sync":
		return AggSync, nil
	case "async", "buffered":
		return AggAsync, nil
	}
	return AggSync, fmt.Errorf("fed: unknown aggregation mode %q (want sync or async)", s)
}

// ErrStaleUpdate reports a buffered update evicted because it exceeded
// Config.MaxStaleness at fold time; match with errors.Is.
var ErrStaleUpdate = errors.New("update older than MaxStaleness at fold time")

// asyncUpdate is one completed dispatch: everything a worker brought back
// from its party, tagged with the logical round whose global it trained on.
type asyncUpdate struct {
	party    int
	dispatch int   // logical round of the global this update trained on
	err      error // any failed client op; the rest of the fields are then partial

	loss      float64
	params    *nn.Params
	pooled    bool  // params drawn from the codec buffer pool
	encoded   bool  // an uplink frame was encoded (residuals advanced)
	encBytes  int64 // encoded upload size; -1 under raw accounting
	upBytes   int64
	downBytes int64
	means     []*mat.Dense
	count     int
	moms      [][]*mat.Dense
	aux       *nn.Params
	trainSecs float64
}

// asyncStats is the coordinator's current global-statistics state, handed to
// workers by value at dispatch. The slices are immutable once published:
// folds install fresh replacements rather than mutating in place.
type asyncStats struct {
	means   []*mat.Dense
	central [][]*mat.Dense
	aux     *nn.Params
}

// asyncEngine owns the buffered-aggregation state. All fields are
// coordinator-owned except arrivals, which workers send on (buffered to the
// fleet size, so a worker can never block: each party has at most one job in
// flight).
type asyncEngine struct {
	st *runState

	k        int     // buffer threshold per logical round
	maxStale int     // eviction bound, in logical rounds
	alpha    float64 // staleness-discount exponent

	inflight     []bool
	nFlight      int
	lastDispatch []int
	buffer       []*asyncUpdate // arrived, not yet folded; arrival order
	arrivals     chan *asyncUpdate
	stats        asyncStats
}

func newAsyncEngine(st *runState) *asyncEngine {
	n := len(st.clients)
	eng := &asyncEngine{
		st:           st,
		k:            st.cfg.BufferK,
		maxStale:     st.cfg.MaxStaleness,
		alpha:        st.cfg.StalenessAlpha,
		inflight:     make([]bool, n),
		lastDispatch: make([]int, n),
		arrivals:     make(chan *asyncUpdate, n),
	}
	if eng.k <= 0 {
		eng.k = (n + 1) / 2 // ⌈M/2⌉: absorb the slow half of the fleet
	}
	if eng.maxStale <= 0 {
		eng.maxStale = 8
	}
	if eng.alpha <= 0 {
		eng.alpha = 1
	}
	for i := range eng.lastDispatch {
		eng.lastDispatch[i] = -1
	}
	return eng
}

// discount is the staleness weight factor 1/(1+s)^α.
func (eng *asyncEngine) discount(staleness int) float64 {
	return 1 / math.Pow(1+float64(staleness), eng.alpha)
}

// discard releases an update's pooled buffers and, when an uplink frame was
// encoded but never applied, drops the party's error-feedback residuals: the
// residual map only has meaning against the chain of frames the server
// actually folded, so an evicted or rejected frame would silently corrupt
// the party's next delta encode.
func (eng *asyncEngine) discard(u *asyncUpdate) {
	eng.release(u)
	if u.encoded && eng.st.cs != nil {
		eng.st.cs.up[u.party].Reset()
	}
}

// release frees a folded update's pooled buffers (its frame WAS applied, so
// residuals stay).
func (eng *asyncEngine) release(u *asyncUpdate) {
	if u.pooled && u.params != nil {
		codec.PutParams(u.params)
		u.params = nil
	}
}

// shutdown waits out every in-flight worker and discards whatever never
// folded, so pooled buffers return and no goroutine outlives the run.
func (eng *asyncEngine) shutdown() {
	for eng.nFlight > 0 {
		u := <-eng.arrivals
		eng.inflight[u.party] = false
		eng.nFlight--
		eng.discard(u)
	}
	for _, u := range eng.buffer {
		eng.discard(u)
	}
	eng.buffer = nil
}

// dispatch hands party i a training job against the current global and
// statistics snapshot. The worker sequences the party's ops through
// runState.call and always delivers exactly one asyncUpdate.
func (eng *asyncEngine) dispatch(parent obs.SpanContext, i, round int, global *nn.Params) {
	eng.inflight[i] = true
	eng.nFlight++
	eng.lastDispatch[i] = round
	eng.st.rec.Count(MetricAsyncDispatched, 1)
	snap := eng.stats
	go func() {
		u := &asyncUpdate{party: i, dispatch: round, encBytes: -1}
		jsp := eng.st.tr.Start(parent, obs.SpanAsyncJob)
		jsp.SetAttr(obs.AttrParty, eng.st.clients[i].Name())
		jsp.SetAttr(obs.AttrDispatch, round)
		u.err = eng.runJob(jsp.Context(), u, global, snap)
		if u.err != nil {
			jsp.SetAttr(obs.AttrErr, u.err.Error())
		}
		jsp.End()
		eng.arrivals <- u
	}()
}

// runJob drives one party through the full per-round protocol — broadcast,
// statistics, training, upload — writing results into u. The first failed
// op stops the job; the coordinator routes its error to the failure policy.
// Moments are centred on the dispatch-time global means in snap, one fold
// behind the sync round's.
func (eng *asyncEngine) runJob(ctx obs.SpanContext, u *asyncUpdate, global *nn.Params, snap asyncStats) error {
	st, i := eng.st, u.party
	if err := st.setGlobal(i, global); err != nil {
		return err
	}
	down, err := st.cs.broadcast(st.clients[i], i, global)
	if err != nil {
		return err
	}
	u.downBytes += down
	if st.allMoment {
		if u.means, u.count, err = st.localMeans(i); err != nil {
			return err
		}
		u.upBytes += bytesOfVecs(u.means) + 8
		if snap.means != nil {
			u.downBytes += bytesOfVecs(snap.means)
			if u.moms, _, err = st.centralMoments(i, snap.means); err != nil {
				return err
			}
			u.upBytes += bytesOfMoms(u.moms) + 8
			if snap.central != nil {
				if err := st.setGlobalStats(i, snap.means, snap.central); err != nil {
					return err
				}
				u.downBytes += bytesOfMoms(snap.central)
			}
		}
	}
	if snap.aux != nil {
		if down, err = st.downloadAux(i, snap.aux); err != nil {
			return err
		}
		u.downBytes += down
	}
	if u.loss, u.trainSecs, err = st.train(ctx, i, u.dispatch); err != nil {
		return err
	}
	var up int64
	u.params, u.encBytes, up, err = st.upload(ctx, i, nil)
	// A decoded upload is pooled and its frame advanced the party's
	// residuals; discard() releases and resets them if the update never
	// folds, including when a screen fails here.
	u.pooled = u.encBytes >= 0
	u.encoded = u.pooled
	if err != nil {
		return err
	}
	u.upBytes += up
	if u.aux, err = st.uploadAux(i); err != nil {
		return err
	}
	if u.aux != nil {
		u.upBytes += int64(u.aux.Bytes())
	}
	return nil
}

// absorb files one arrival: failures go to the failure policy (the returned
// error aborts the run under FailFast), successes join the buffer and charge
// the collecting round's byte accounting.
func (eng *asyncEngine) absorb(u *asyncUpdate, stats *RoundStats) error {
	eng.inflight[u.party] = false
	eng.nFlight--
	if u.err != nil {
		eng.discard(u)
		return eng.st.fail(u.party, u.err)
	}
	stats.BytesUp += u.upBytes
	stats.BytesDown += u.downBytes
	eng.buffer = append(eng.buffer, u)
	return nil
}

// foldOutcome summarizes one fold for the history row and the observer feed.
type foldOutcome struct {
	global    *nn.Params // nil when nothing folded (quorum skip handles it)
	folded    int
	trainLoss float64
	staleP99  float64
	parties   []obs.PartyObservation
}

// statsShapeOK screens an update's statistics payload against a reference
// before the fold touches any matrix math (shape mismatches would otherwise
// panic inside the in-place kernels).
func statsShapeOK(u *asyncUpdate, ref *asyncUpdate) bool {
	if len(u.means) != len(ref.means) {
		return false
	}
	for l := range u.means {
		if u.means[l].Rows() != ref.means[l].Rows() || u.means[l].Cols() != ref.means[l].Cols() {
			return false
		}
	}
	if u.moms != nil && ref.moms != nil {
		if len(u.moms) != len(ref.moms) {
			return false
		}
		for l := range u.moms {
			if len(u.moms[l]) != len(ref.moms[l]) {
				return false
			}
		}
	}
	return true
}

// fold consumes the first K buffered updates: it rejects updates from
// parties benched while in flight, evicts updates past the staleness bound
// (a policy failure for the party), staleness-discounts the survivors'
// weights, and merges params, statistics, and aux state. The merged global
// is returned; on lost quorum the survivors are pushed back into the buffer
// and an ErrQuorumLost-wrapping error returned, so QuorumSkip keeps them for
// the next round.
func (eng *asyncEngine) fold(round int, global *nn.Params, stats *RoundStats) (*foldOutcome, error) {
	st := eng.st
	take := eng.buffer
	if len(take) > eng.k {
		take = take[:eng.k]
	}
	rest := eng.buffer[len(take):]
	if len(rest) > 0 {
		eng.st.rec.Count(MetricAsyncCarried, int64(len(rest)))
	}
	eng.buffer = append([]*asyncUpdate(nil), rest...)

	var kept []*asyncUpdate
	var statsRef *asyncUpdate
	for _, u := range take {
		if st.benched(u.party, round) {
			// Benched while in flight: the bench already penalized the
			// party, so the update is rejected without a fresh strike.
			st.rec.Count(MetricAsyncRejected, 1)
			eng.discard(u)
			continue
		}
		if s := round - u.dispatch; s > eng.maxStale {
			st.rec.Count(MetricAsyncEvicted, 1)
			ferr := st.fail(u.party, fmt.Errorf("fed: update from %s dispatched round %d folded round %d: %w",
				st.clients[u.party].Name(), u.dispatch, round, ErrStaleUpdate))
			eng.discard(u)
			if ferr != nil {
				return nil, ferr
			}
			continue
		}
		badShape := global.Compatible(u.params)
		if badShape == nil && st.allMoment && u.means != nil {
			if statsRef == nil {
				statsRef = u
			} else if !statsShapeOK(u, statsRef) {
				badShape = fmt.Errorf("statistics shape mismatch")
			}
		}
		if badShape != nil {
			ferr := st.fail(u.party, fmt.Errorf("fed: upload from %s: %w", st.clients[u.party].Name(), badShape))
			eng.discard(u)
			if ferr != nil {
				return nil, ferr
			}
			continue
		}
		kept = append(kept, u)
	}

	if err := st.quorum(round, len(kept)); err != nil {
		// Push the survivors back so a skipped round keeps, not loses, them.
		eng.buffer = append(kept, eng.buffer...)
		return nil, err
	}

	// Deterministic fold order: the arrival schedule decides WHICH updates
	// are in the buffer, but given that set the math is order-independent.
	sort.Slice(kept, func(a, b int) bool {
		if kept[a].dispatch != kept[b].dispatch {
			return kept[a].dispatch < kept[b].dispatch
		}
		return kept[a].party < kept[b].party
	})

	out := &foldOutcome{folded: len(kept)}
	sets := make([]*nn.Params, len(kept))
	ws := make([]float64, len(kept))
	stales := make([]float64, len(kept))
	var lossSum, lossW float64
	for n, u := range kept {
		s := round - u.dispatch
		stales[n] = float64(s)
		w := st.weights[u.party] * eng.discount(s)
		sets[n] = u.params
		ws[n] = w
		lossSum += w * u.loss
		lossW += w
		st.touched[u.party] = true
		st.rec.Observe(MetricAsyncStaleness, float64(s))
		out.parties = append(out.parties, obs.PartyObservation{
			Name:         st.clients[u.party].Name(),
			TrainSeconds: u.trainSecs,
			Dropped:      st.dropped[u.party],
		})
	}
	st.rec.Count(MetricAsyncFolded, int64(len(kept)))
	if lossW > 0 {
		out.trainLoss = lossSum / lossW
	}
	sort.Float64s(stales)
	out.staleP99 = stales[(len(stales)*99)/100]

	agg, err := nn.Average(sets, ws)
	if err != nil {
		return nil, fmt.Errorf("fed: aggregation: %w", err)
	}
	out.global = agg

	if st.allMoment {
		eng.foldStats(kept, round)
	}
	if err := eng.foldAux(kept, round); err != nil {
		return nil, err
	}
	for _, u := range kept {
		eng.release(u)
	}
	return out, nil
}

// foldStats merges the kept updates' means and central moments into the
// engine's statistics state with the same staleness-discounted sample-count
// weights the sync aggregators use (count_i/(1+s)^α): the paper's moment
// aggregation is a weighted sum, so partial discounted folding is exact for
// a fixed center. Fresh matrices are installed — snapshots in flight keep
// reading the old ones.
func (eng *asyncEngine) foldStats(kept []*asyncUpdate, round int) {
	var contrib []*asyncUpdate
	for _, u := range kept {
		if u.means != nil && u.count > 0 {
			contrib = append(contrib, u)
		}
	}
	if len(contrib) == 0 {
		return
	}
	layers := len(contrib[0].means)
	newMeans := make([]*mat.Dense, layers)
	for l := range newMeans {
		newMeans[l] = eng.discountedMean(contrib, round, func(u *asyncUpdate) *mat.Dense { return u.means[l] })
	}
	eng.stats.means = newMeans

	var momful []*asyncUpdate
	for _, u := range contrib {
		if len(u.moms) == layers {
			momful = append(momful, u)
		}
	}
	if len(momful) == 0 {
		return // keep the previous central moments until new ones arrive
	}
	newCentral := make([][]*mat.Dense, layers)
	for l := 0; l < layers; l++ {
		orders := len(momful[0].moms[l])
		newCentral[l] = make([]*mat.Dense, orders)
		for o := 0; o < orders; o++ {
			newCentral[l][o] = eng.discountedMean(momful, round, func(u *asyncUpdate) *mat.Dense { return u.moms[l][o] })
		}
	}
	eng.stats.central = newCentral
}

// discountedMean is Σ w_u·x(u) / Σ w_u over us, with w_u = count_u/(1+s_u)^α.
func (eng *asyncEngine) discountedMean(us []*asyncUpdate, round int, x func(*asyncUpdate) *mat.Dense) *mat.Dense {
	acc := mat.New(x(us[0]).Rows(), x(us[0]).Cols())
	var wsum float64
	for _, u := range us {
		w := float64(u.count) * eng.discount(round-u.dispatch)
		acc.AXPY(w, x(u))
		wsum += w
	}
	acc.ScaleInPlace(1 / wsum)
	return acc
}

// foldAux merges the kept updates' aux uploads (unit weights discounted by
// staleness, mirroring the sync auxExchange's plain average) and installs
// the aggregate as the state future dispatches download.
func (eng *asyncEngine) foldAux(kept []*asyncUpdate, round int) error {
	var sets []*nn.Params
	var ws []float64
	for _, u := range kept {
		if u.aux != nil {
			sets = append(sets, u.aux)
			ws = append(ws, eng.discount(round-u.dispatch))
		}
	}
	if len(sets) == 0 {
		return nil
	}
	globalAux, err := nn.Average(sets, ws)
	if err != nil {
		return fmt.Errorf("fed: aux aggregation: %w", err)
	}
	eng.stats.aux = globalAux
	return nil
}

// round is the buffered round body: it dispatches to every idle sampled
// party, collects arrivals until the buffer holds BufferK updates, and folds
// them into a new global. Run's round loop does the rest.
func (eng *asyncEngine) round(r *roundState) error {
	st := eng.st
	reach := st.reachable(r.n)
	if err := st.quorum(r.n, len(reach)); err != nil {
		return err
	}

	// Bootstrap the statistics state with one synchronous exchange
	// (broadcast + Algorithm 1's two legs) the first time through:
	// dispatches need global means to center moments on, and a resumed run
	// restores them from the checkpoint instead.
	if st.allMoment && eng.stats.means == nil {
		if err := st.broadcast(r, reach); err != nil {
			return err
		}
		gm, gc, err := st.momentExchange(r, st.aliveOf(reach))
		if err != nil {
			return err
		}
		eng.stats.means, eng.stats.central = gm, gc
	}

	// Evaluate the global entering the round on the idle parties (an
	// in-flight party cannot be probed without violating the
	// one-call-at-a-time contract). Installs are not byte-charged: this is
	// scoring, not protocol traffic, and a failed one is skipped leniently,
	// like st.evaluate.
	if st.evalDue(r.n) {
		evalIdx := make([]int, 0, len(reach))
		for _, i := range reach {
			if !eng.inflight[i] && !st.dropped[i] && st.setGlobal(i, st.global) == nil {
				evalIdx = append(evalIdx, i)
			}
		}
		if len(evalIdx) > 0 {
			st.evalRound(r, evalIdx)
		}
	}

	// Dispatch to every sampled party that is idle and holds no buffered
	// update (so a fold-time Encoder.Reset can never race the party's own
	// uplink encoder).
	active := st.cohort(r.n, reach)
	buffered := make([]bool, len(st.clients))
	for _, u := range eng.buffer {
		buffered[u.party] = true
	}
	for _, i := range active {
		if !eng.inflight[i] && !buffered[i] && !st.dropped[i] {
			eng.dispatch(r.ctx, i, r.n, st.global)
		}
	}
	if err := eng.collect(r); err != nil {
		return err
	}

	// Fold the buffer into a new global.
	sp := telemetry.StartSpan(st.rec, MetricAggregateSeconds)
	osp := st.tr.Start(r.ctx, obs.SpanFold)
	out, err := eng.fold(r.n, st.global, &r.stats)
	if out != nil {
		osp.SetAttr(obs.AttrBufferFill, out.folded)
		osp.SetAttr(obs.AttrBufferTarget, eng.k)
		osp.SetAttr(obs.AttrStalenessP99, out.staleP99)
	}
	sp.End()
	osp.End()
	if err != nil {
		return err
	}
	r.stats.TrainLoss = out.trainLoss
	r.folded, r.staleP99, r.parties = out.folded, out.staleP99, out.parties
	st.global = out.global
	return nil
}

// collect absorbs arrivals until the buffer holds K updates, nothing more
// can arrive, or the round deadline expires (a stall).
func (eng *asyncEngine) collect(r *roundState) error {
	waitSpan := telemetry.StartSpan(eng.st.rec, MetricAsyncBufferWait)
	defer waitSpan.End()
	var deadline <-chan time.Time
	if d := eng.st.cfg.BufferTimeout; d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		deadline = timer.C
	}
	for len(eng.buffer) < eng.k && eng.nFlight > 0 {
		select {
		case u := <-eng.arrivals:
			if err := eng.absorb(u, &r.stats); err != nil {
				return err
			}
		case <-deadline:
			r.stalled = true
			eng.st.rec.Count(MetricAsyncStalls, 1)
			return nil
		}
	}
	return nil
}
