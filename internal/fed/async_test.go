package fed

// async_test.go exercises the buffered asynchronous aggregation mode: config
// parsing and validation, staleness-discounted fold math, the policy
// interplay (benched rejection, eviction with codec-residual reset, quorum
// loss mid-buffer), observer/telemetry surfaces, and checkpoint/resume.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"fedomd/internal/codec"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/obs"
	"fedomd/internal/telemetry"
)

func TestParseAggregation(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want AggregationMode
	}{
		{"", AggSync}, {"sync", AggSync}, {"SYNC", AggSync},
		{"async", AggAsync}, {"Async", AggAsync}, {"buffered", AggAsync},
	} {
		got, err := ParseAggregation(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseAggregation(%q) = %v, %v want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseAggregation("fedbuff"); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if AggSync.String() != "sync" || AggAsync.String() != "async" {
		t.Fatalf("mode names = %q, %q", AggSync, AggAsync)
	}
}

func TestAsyncConfigValidation(t *testing.T) {
	clients := []Client{newFakeClient("a", 1, 0), newFakeClient("b", 1, 0)}
	for name, cfg := range map[string]Config{
		"bad mode":       {Rounds: 1, Aggregation: AggregationMode(7)},
		"buffer too big": {Rounds: 1, Aggregation: AggAsync, BufferK: 3},
		"negative k":     {Rounds: 1, Aggregation: AggAsync, BufferK: -1},
		"negative stale": {Rounds: 1, Aggregation: AggAsync, MaxStaleness: -1},
		"negative alpha": {Rounds: 1, Aggregation: AggAsync, StalenessAlpha: -0.5},
	} {
		if _, err := Run(cfg, clients); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// TestSyncIgnoresAsyncKnobs is the zero-value parity gate: a sync run with
// the async knobs set is identical to one without them — the knobs must not
// perturb the historical barriered path at all.
func TestSyncIgnoresAsyncKnobs(t *testing.T) {
	mk := func() []Client {
		a := newFakeClient("a", 3, 0)
		a.trainVal = 1
		b := newFakeClient("b", 1, 0)
		b.trainVal = 5
		return []Client{a, b}
	}
	plain, err := Run(Config{Rounds: 3}, mk())
	if err != nil {
		t.Fatal(err)
	}
	knobbed, err := Run(Config{Rounds: 3, Aggregation: AggSync, BufferK: 1,
		MaxStaleness: 4, StalenessAlpha: 2, BufferTimeout: time.Millisecond}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := plain.FinalParams.Get("w").At(0, 0), knobbed.FinalParams.Get("w").At(0, 0); a != b {
		t.Fatalf("sync run perturbed by async knobs: %v vs %v", a, b)
	}
	if len(plain.History) != len(knobbed.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(plain.History), len(knobbed.History))
	}
	for i := range plain.History {
		p, k := plain.History[i], knobbed.History[i]
		if p.TrainLoss != k.TrainLoss || p.ValAcc != k.ValAcc || p.TestAcc != k.TestAcc ||
			p.BytesUp != k.BytesUp || p.BytesDown != k.BytesDown {
			t.Fatalf("round %d stats differ: %+v vs %+v", i, p, k)
		}
	}
}

// learnFake trains toward half the received global plus a fixed bias, so the
// trajectory depends on every intermediate aggregate and a sync/async
// mismatch anywhere compounds into the final model.
type learnFake struct {
	*fakeClient
	bias float64
}

func (l *learnFake) TrainLocal(int) (float64, error) {
	w := l.params.Get("w")
	w.Set(0, 0, 0.5*l.received[len(l.received)-1]+l.bias)
	return l.loss, nil
}

// TestAsyncFullBufferMatchesSync drains the whole fleet every round
// (BufferK = M, instant clients): every fold happens at staleness 0, so the
// async trajectory must reproduce the synchronous FedAvg recursion exactly.
// The codec cases pin the broadcast/upload codec seam in both modes: a lossy
// tier shapes both trajectories, and both charge the same encoded bytes.
func TestAsyncFullBufferMatchesSync(t *testing.T) {
	q8, err := codec.Parse("q8", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, cc := range []codec.Options{{}, {Kind: codec.Delta}, q8} {
		mk := func() []Client {
			a := &learnFake{fakeClient: newFakeClient("a", 3, 0), bias: 1}
			b := &learnFake{fakeClient: newFakeClient("b", 1, 0), bias: 5}
			return []Client{a, b}
		}
		sync, err := Run(Config{Rounds: 4, Codec: cc}, mk())
		if err != nil {
			t.Fatal(err)
		}
		async, err := Run(Config{Rounds: 4, Aggregation: AggAsync, BufferK: 2, Codec: cc}, mk())
		if err != nil {
			t.Fatal(err)
		}
		s, a := sync.FinalParams.Get("w").At(0, 0), async.FinalParams.Get("w").At(0, 0)
		if s != a {
			t.Fatalf("codec %s: async K=M final = %v, sync = %v", cc.Name(), a, s)
		}
		if a == 0 {
			t.Fatalf("codec %s: trajectory degenerate: final model never moved", cc.Name())
		}
		if cc.Enabled() && (sync.TotalBytesUp != async.TotalBytesUp || sync.TotalBytesDown != async.TotalBytesDown) {
			t.Fatalf("codec %s: async bytes %d/%d, sync %d/%d", cc.Name(),
				async.TotalBytesUp, async.TotalBytesDown, sync.TotalBytesUp, sync.TotalBytesDown)
		}
		// Same schedule again: the async loop must be run-to-run deterministic.
		again, err := Run(Config{Rounds: 4, Aggregation: AggAsync, BufferK: 2, Codec: cc}, mk())
		if err != nil {
			t.Fatal(err)
		}
		if g := again.FinalParams.Get("w").At(0, 0); g != a {
			t.Fatalf("codec %s: async rerun final = %v, first run = %v", cc.Name(), g, a)
		}
	}
}

// asyncHarness builds a runState + engine pair around canned clients for
// direct fold-level tests.
func asyncHarness(t *testing.T, cfg *Config, clients []Client, rec telemetry.Recorder) (*runState, *asyncEngine) {
	t.Helper()
	weights := make([]float64, len(clients))
	for i, c := range clients {
		weights[i] = float64(c.NumSamples())
	}
	st := newRunState(cfg, clients, weights, telemetry.Or(rec))
	return st, newAsyncEngine(st)
}

func paramsAt(v float64) *nn.Params {
	p := nn.NewParams()
	m := mat.New(1, 1)
	m.Set(0, 0, v)
	p.Add("w", m)
	return p
}

// TestAsyncFoldStalenessWeights checks the discount math: with α = 1 and
// equal party weights, a staleness-1 update carries half the weight of a
// fresh one, so the aggregate is (p0 + p1/2) / 1.5.
func TestAsyncFoldStalenessWeights(t *testing.T) {
	cfg := &Config{Rounds: 10, Aggregation: AggAsync, BufferK: 2, StalenessAlpha: 1}
	clients := []Client{newFakeClient("a", 1, 0), newFakeClient("b", 1, 0)}
	_, eng := asyncHarness(t, cfg, clients, nil)
	eng.buffer = []*asyncUpdate{
		{party: 0, dispatch: 5, params: paramsAt(3), loss: 3, encBytes: -1},
		{party: 1, dispatch: 4, params: paramsAt(0), loss: 0, encBytes: -1},
	}
	out, err := eng.fold(5, paramsAt(0), &RoundStats{})
	if err != nil {
		t.Fatal(err)
	}
	want := (1.0*3 + 0.5*0) / 1.5
	if got := out.global.Get("w").At(0, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("discounted fold = %v want %v", got, want)
	}
	if math.Abs(out.trainLoss-want) > 1e-12 {
		t.Fatalf("discounted loss = %v want %v", out.trainLoss, want)
	}
	if out.staleP99 != 1 {
		t.Fatalf("staleP99 = %v want 1", out.staleP99)
	}
	if eng.discount(0) != 1 || eng.discount(1) != 0.5 || eng.discount(3) != 0.25 {
		t.Fatalf("discount curve = %v %v %v", eng.discount(0), eng.discount(1), eng.discount(3))
	}
}

// TestAsyncFoldRejectsBenched: an update from a party benched while its job
// was in flight is rejected at fold time without a fresh strike, and the
// rejection is counted.
func TestAsyncFoldRejectsBenched(t *testing.T) {
	agg := telemetry.NewAggregator()
	cfg := &Config{Rounds: 10, Aggregation: AggAsync, BufferK: 2, Policy: Quarantine}
	clients := []Client{newFakeClient("a", 1, 0), newFakeClient("b", 1, 0)}
	st, eng := asyncHarness(t, cfg, clients, agg)
	st.benchedUntil[0] = 9 // benched through round 8
	eng.buffer = []*asyncUpdate{
		{party: 0, dispatch: 5, params: paramsAt(100), encBytes: -1},
		{party: 1, dispatch: 5, params: paramsAt(7), encBytes: -1},
	}
	out, err := eng.fold(5, paramsAt(0), &RoundStats{})
	if err != nil {
		t.Fatal(err)
	}
	if out.folded != 1 {
		t.Fatalf("folded = %d want 1", out.folded)
	}
	if got := out.global.Get("w").At(0, 0); got != 7 {
		t.Fatalf("benched update leaked into aggregate: %v", got)
	}
	if got := agg.Counter(MetricAsyncRejected); got != 1 {
		t.Fatalf("rejected counter = %d want 1", got)
	}
	if st.strikes[0] != 0 {
		t.Fatal("rejection must not add a strike on top of the bench")
	}
}

// TestAsyncFoldEvictsStaleAndResetsEncoder: an update past MaxStaleness is
// evicted as a policy failure, and because its encoded frame was never
// applied the party's uplink encoder is reset — the next frame must be
// bit-identical to a fresh encoder's.
func TestAsyncFoldEvictsStaleAndResetsEncoder(t *testing.T) {
	agg := telemetry.NewAggregator()
	cfg := &Config{Rounds: 40, Aggregation: AggAsync, BufferK: 2, Policy: DropRound,
		MaxStaleness: 2, Codec: codec.Options{Kind: codec.Quant, Bits: 8}}
	clients := []Client{newFakeClient("a", 1, 0), newFakeClient("b", 1, 0)}
	st, eng := asyncHarness(t, cfg, clients, agg)

	// Advance party 0's residuals with one lossy frame.
	p := nn.NewParams()
	m := mat.New(1, 5)
	for j := 0; j < 5; j++ {
		m.Set(0, j, 0.1*float64(j)+0.037)
	}
	p.Add("w", m)
	if _, err := st.cs.up[0].EncodeParams(nil, p, nil); err != nil {
		t.Fatal(err)
	}

	eng.buffer = []*asyncUpdate{
		{party: 0, dispatch: 2, params: paramsAt(100), encoded: true, encBytes: 9},
		{party: 1, dispatch: 5, params: paramsAt(7), encBytes: -1},
	}
	out, err := eng.fold(5, paramsAt(0), &RoundStats{}) // staleness 3 > 2
	if err != nil {
		t.Fatal(err)
	}
	if out.folded != 1 || out.global.Get("w").At(0, 0) != 7 {
		t.Fatalf("evicted update leaked: folded=%d global=%v", out.folded, out.global.Get("w").At(0, 0))
	}
	if got := agg.Counter(MetricAsyncEvicted); got != 1 {
		t.Fatalf("evicted counter = %d want 1", got)
	}
	if st.failures["a"] != 1 {
		t.Fatalf("eviction must register a policy failure, got %v", st.failures)
	}
	// Residuals dropped: the post-eviction frame matches a fresh encoder's.
	after, err := st.cs.up[0].EncodeParams(nil, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := codec.NewEncoder(cfg.Codec).EncodeParams(nil, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, fresh) {
		t.Fatal("post-eviction frame differs from a fresh encoder's: residuals survived the eviction")
	}
	// FailFast instead surfaces the eviction as a run-fatal ErrStaleUpdate.
	cfgFF := &Config{Rounds: 40, Aggregation: AggAsync, MaxStaleness: 2}
	_, engFF := asyncHarness(t, cfgFF, []Client{newFakeClient("a", 1, 0)}, nil)
	engFF.buffer = []*asyncUpdate{{party: 0, dispatch: 0, params: paramsAt(1), encBytes: -1}}
	if _, err := engFF.fold(5, paramsAt(0), &RoundStats{}); !errors.Is(err, ErrStaleUpdate) {
		t.Fatalf("FailFast eviction error = %v want ErrStaleUpdate", err)
	}
}

// TestAsyncFoldQuorumLoss: when every buffered update is screened out, the
// fold reports lost quorum and pushes the survivors back so a skipped round
// keeps them.
func TestAsyncFoldQuorumLoss(t *testing.T) {
	cfg := &Config{Rounds: 10, Aggregation: AggAsync, BufferK: 2, Policy: DropRound,
		MaxStaleness: 2, MinClients: 2}
	clients := []Client{newFakeClient("a", 1, 0), newFakeClient("b", 1, 0)}
	_, eng := asyncHarness(t, cfg, clients, nil)
	survivor := &asyncUpdate{party: 1, dispatch: 5, params: paramsAt(7), encBytes: -1}
	eng.buffer = []*asyncUpdate{
		{party: 0, dispatch: 1, params: paramsAt(3), encBytes: -1}, // stale, evicted
		survivor,
	}
	_, err := eng.fold(5, paramsAt(0), &RoundStats{})
	if !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("fold error = %v want ErrQuorumLost", err)
	}
	if len(eng.buffer) != 1 || eng.buffer[0] != survivor {
		t.Fatalf("survivor not pushed back: buffer = %v", eng.buffer)
	}
}

// TestAsyncQuorumPolicyEndToEnd: a fleet whose trainers all fail loses
// quorum every round — QuorumAbort kills the run, QuorumSkip degrades it.
func TestAsyncQuorumPolicyEndToEnd(t *testing.T) {
	mk := func() []Client {
		a := newFakeClient("a", 1, 0)
		a.trainErr = errors.New("boom")
		b := newFakeClient("b", 1, 0)
		b.trainErr = errors.New("boom")
		return []Client{a, b}
	}
	cfg := Config{Rounds: 3, Aggregation: AggAsync, Policy: DropRound, BufferK: 2}
	if _, err := Run(cfg, mk()); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("QuorumAbort error = %v want ErrQuorumLost", err)
	}
	cfg.QuorumPolicy = QuorumSkip
	res, err := Run(cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 3 {
		t.Fatalf("skip policy history = %d rounds want 3", len(res.History))
	}
	for _, h := range res.History {
		if !h.Degraded {
			t.Fatalf("round %d not marked degraded", h.Round)
		}
	}
}

// slowFake is a fakeClient whose training sleeps, modeling a sustained
// straggler for the no-barrier loop.
type slowFake struct {
	*fakeClient
	sleep time.Duration
}

func (s *slowFake) TrainLocal(round int) (float64, error) {
	time.Sleep(s.sleep)
	return s.fakeClient.TrainLocal(round)
}

// obsSink captures every RoundObservation the runtime emits.
type obsSink struct {
	mu  sync.Mutex
	obs []obs.RoundObservation
}

func (s *obsSink) ObserveRound(_ obs.SpanContext, o obs.RoundObservation) {
	s.mu.Lock()
	s.obs = append(s.obs, o)
	s.mu.Unlock()
}

// TestAsyncLateArrivalFoldsWithStaleness: a straggler's update misses its
// dispatch round's buffer, survives in flight, and folds later with a
// positive applied staleness — no barrier ever waits for it.
func TestAsyncLateArrivalFoldsWithStaleness(t *testing.T) {
	// The fast parties pace the rounds (~3ms each) so the straggler's 10ms
	// jobs land mid-run rather than after it ends.
	a := &slowFake{fakeClient: newFakeClient("a", 1, 0), sleep: 3 * time.Millisecond}
	a.trainVal = 1
	b := &slowFake{fakeClient: newFakeClient("b", 1, 0), sleep: 3 * time.Millisecond}
	b.trainVal = 2
	slow := &slowFake{fakeClient: newFakeClient("c", 1, 0), sleep: 10 * time.Millisecond}
	slow.trainVal = 3
	sink := &obsSink{}
	agg := telemetry.NewAggregator()
	res, err := Run(Config{Rounds: 10, Aggregation: AggAsync, BufferK: 2, MaxStaleness: 100,
		Recorder: agg, Observer: sink}, []Client{a, b, slow})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 10 {
		t.Fatalf("history = %d rounds want 10", len(res.History))
	}
	maxStale := 0.0
	for _, o := range sink.obs {
		if !o.Async || o.BufferTarget != 2 {
			t.Fatalf("observation missing async surface: %+v", o)
		}
		if o.StalenessP99 > maxStale {
			maxStale = o.StalenessP99
		}
	}
	if maxStale < 1 {
		t.Fatalf("straggler never folded with positive staleness (max p99 = %v)", maxStale)
	}
	if agg.Counter(MetricAsyncFolded) == 0 || agg.Counter(MetricAsyncDispatched) == 0 {
		t.Fatal("async counters silent")
	}
	if s, ok := agg.Histogram(MetricAsyncStaleness); !ok || s.Max < 1 {
		t.Fatalf("staleness histogram = %+v, %v", s, ok)
	}
}

// TestAsyncBufferTimeoutStalls: with one party hopelessly slow and BufferK
// demanding everyone, the round deadline fires, the round folds short, and
// the stall is surfaced to telemetry and the observer.
func TestAsyncBufferTimeoutStalls(t *testing.T) {
	a := newFakeClient("a", 1, 0)
	slow := &slowFake{fakeClient: newFakeClient("b", 1, 0), sleep: 200 * time.Millisecond}
	sink := &obsSink{}
	agg := telemetry.NewAggregator()
	res, err := Run(Config{Rounds: 2, Aggregation: AggAsync, BufferK: 2,
		BufferTimeout: 20 * time.Millisecond, Recorder: agg, Observer: sink},
		[]Client{a, slow})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 2 {
		t.Fatalf("history = %d rounds want 2", len(res.History))
	}
	if agg.Counter(MetricAsyncStalls) == 0 {
		t.Fatal("stall counter silent")
	}
	stalled := false
	for _, o := range sink.obs {
		if o.BufferStalled && o.BufferFill < o.BufferTarget {
			stalled = true
		}
	}
	if !stalled {
		t.Fatal("no observation marked the stalled, under-filled round")
	}
}

// TestAsyncCheckpointResume: a run killed mid-flight and resumed from its
// last snapshot must land on the exact same final model and history tail as
// the uninterrupted run (BufferK = M keeps the schedule deterministic).
func TestAsyncCheckpointResume(t *testing.T) {
	mk := func() []Client {
		a := &learnFake{fakeClient: newFakeClient("a", 3, 0), bias: 1}
		b := &learnFake{fakeClient: newFakeClient("b", 1, 0), bias: 5}
		c := &learnFake{fakeClient: newFakeClient("c", 2, 0), bias: 2}
		return []Client{a, b, c}
	}
	full, err := Run(Config{Rounds: 6, Aggregation: AggAsync, BufferK: 3}, mk())
	if err != nil {
		t.Fatal(err)
	}

	var last *Checkpoint
	writer := func(ck *Checkpoint) error {
		// Round-trip through gob so the wire forms are what resume sees.
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
			return err
		}
		var decoded Checkpoint
		if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
			return err
		}
		last = &decoded
		return nil
	}
	if _, err := Run(Config{Rounds: 6, Aggregation: AggAsync, BufferK: 3,
		CheckpointEvery: 2, CheckpointWriter: writer}, mk()); err != nil {
		t.Fatal(err)
	}
	if last == nil || last.Round != 6 {
		t.Fatalf("expected a round-6 snapshot, got %+v", last)
	}
	// "Kill" at round 4 by resuming from the round-4 snapshot instead.
	var atFour *Checkpoint
	writer4 := func(ck *Checkpoint) error {
		if ck.Round == 4 {
			return writerCapture(ck, &atFour)
		}
		return nil
	}
	if _, err := Run(Config{Rounds: 6, Aggregation: AggAsync, BufferK: 3,
		CheckpointEvery: 2, CheckpointWriter: writer4}, mk()); err != nil {
		t.Fatal(err)
	}
	if atFour == nil {
		t.Fatal("round-4 snapshot never taken")
	}
	resumed, err := Run(Config{Rounds: 6, Aggregation: AggAsync, BufferK: 3,
		Resume: atFour}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if f, r := full.FinalParams.Get("w").At(0, 0), resumed.FinalParams.Get("w").At(0, 0); f != r {
		t.Fatalf("resumed final = %v, uninterrupted = %v", r, f)
	}
	if len(resumed.History) != len(full.History) {
		t.Fatalf("resumed history = %d rounds, uninterrupted = %d", len(resumed.History), len(full.History))
	}
	for i := range full.History {
		if full.History[i].TrainLoss != resumed.History[i].TrainLoss {
			t.Fatalf("round %d loss: %v vs %v", i, full.History[i].TrainLoss, resumed.History[i].TrainLoss)
		}
	}
}

func writerCapture(ck *Checkpoint, dst **Checkpoint) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		return err
	}
	var decoded Checkpoint
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		return err
	}
	*dst = &decoded
	return nil
}

// TestAsyncBufferSnapshotRoundTrip: a non-empty in-flight buffer (params,
// statistics, aux, dispatch clocks) survives snapshot → gob → restore.
func TestAsyncBufferSnapshotRoundTrip(t *testing.T) {
	cfg := &Config{Rounds: 10, Aggregation: AggAsync}
	clients := []Client{newFakeClient("a", 1, 0), newFakeClient("b", 1, 0)}
	_, eng := asyncHarness(t, cfg, clients, nil)
	means := []*mat.Dense{mat.New(1, 2)}
	means[0].Set(0, 0, 0.5)
	means[0].Set(0, 1, -1.5)
	mom := mat.New(1, 2)
	mom.Set(0, 0, 0.25)
	eng.buffer = []*asyncUpdate{{
		party: 1, dispatch: 3, loss: 0.7, params: paramsAt(9),
		means: means, count: 4, moms: [][]*mat.Dense{{mom}},
		aux: paramsAt(2), trainSecs: 0.01, encBytes: -1,
	}}
	eng.lastDispatch[0] = 4
	eng.lastDispatch[1] = 3 // the buffered party's dispatch clock
	eng.stats.means = means
	eng.stats.aux = paramsAt(3)

	ck := &Checkpoint{Round: 5}
	eng.snapshotInto(ck)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		t.Fatal(err)
	}
	var decoded Checkpoint
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}

	_, eng2 := asyncHarness(t, cfg, clients, nil)
	if err := eng2.restore(&decoded); err != nil {
		t.Fatal(err)
	}
	if len(eng2.buffer) != 1 {
		t.Fatalf("restored buffer = %d updates want 1", len(eng2.buffer))
	}
	u := eng2.buffer[0]
	if u.party != 1 || u.dispatch != 3 || u.loss != 0.7 || u.count != 4 || u.trainSecs != 0.01 {
		t.Fatalf("restored update = %+v", u)
	}
	if u.params.Get("w").At(0, 0) != 9 || u.aux.Get("w").At(0, 0) != 2 {
		t.Fatal("restored params/aux wrong")
	}
	if u.means[0].At(0, 1) != -1.5 || u.moms[0][0].At(0, 0) != 0.25 {
		t.Fatal("restored statistics wrong")
	}
	if u.pooled || u.encoded || u.encBytes != -1 {
		t.Fatalf("restored update must be raw and unpooled: %+v", u)
	}
	if eng2.lastDispatch[0] != 4 || eng2.lastDispatch[1] != 3 {
		t.Fatalf("restored dispatch clocks = %v", eng2.lastDispatch)
	}
	if eng2.stats.means[0].At(0, 0) != 0.5 || eng2.stats.aux.Get("w").At(0, 0) != 3 {
		t.Fatal("restored engine statistics wrong")
	}
}

// TestAsyncMomentAndAuxFold: a full-capability fleet under async mode keeps
// the statistics exchange and aux averaging alive — the bootstrap exchange
// seeds the global means, folds refresh them, and aux state circulates.
func TestAsyncMomentAndAuxFold(t *testing.T) {
	d1, _ := mat.NewFromRows([][]float64{{1}, {3}})
	d2, _ := mat.NewFromRows([][]float64{{5}, {7}})
	a := &momentFake{fakeClient: newFakeClient("a", 2, 0), data: d1}
	b := &momentFake{fakeClient: newFakeClient("b", 2, 0), data: d2}
	agg := telemetry.NewAggregator()
	res, err := Run(Config{Rounds: 3, Aggregation: AggAsync, BufferK: 2, Recorder: agg},
		[]Client{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 3 {
		t.Fatalf("history = %d want 3", len(res.History))
	}
	// The bootstrap exchange runs once; the async jobs carry statistics on
	// every later dispatch.
	if s, ok := agg.Histogram(MetricMomentsSeconds); !ok || s.Count != 1 {
		t.Fatalf("bootstrap moment exchange count = %+v, %v want 1", s, ok)
	}
	if got := a.gotMeans; got == nil {
		t.Fatal("party a never received global means")
	}
	if agg.Counter(MetricAsyncFolded) != 6 {
		t.Fatalf("folded counter = %d want 6", agg.Counter(MetricAsyncFolded))
	}
}
