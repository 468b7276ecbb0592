package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fedomd/internal/fed"
	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/obs"
	"fedomd/internal/telemetry"
)

// Span names recorded at the benchmark's layer boundaries. The client
// spans come from the decorator around every fed.MomentClient, so on the
// loopback workload they time the party side of each RPC. The rpc and codec
// spans are the program's own obs.Tracer spans, copied in by tracerSink: a
// span named rpcPrefix plus an op times one remote call of the coordinator
// from send to reply, and the codec spans time the wire codec's work.
const (
	clientPrefix       = "client/"
	spanSetParams      = "client/set_params"
	spanEvalVal        = "client/eval_val"
	spanEvalTest       = "client/eval_test"
	spanLocalMeans     = "client/local_means"
	spanCentral        = "client/central_moments"
	spanSetGlobalStats = "client/set_global_stats"
	spanTrainLocal     = "client/train_local"
	spanParams         = "client/params"
	spanCheckpoint     = "fed/checkpoint"
	spanRound          = "fed/round"
	spanEncode         = "codec/encode"
	spanDecode         = "codec/decode"
	rpcPrefix          = "rpc/"
)

// phaseOf maps a client, rpc or checkpoint span to the fed round phase it
// belongs to. Codec spans take the phase of the remote call they serve.
var phaseOf = map[string]string{
	spanSetParams:                  "broadcast",
	spanEvalVal:                    "eval",
	spanEvalTest:                   "eval",
	spanLocalMeans:                 "moments",
	spanCentral:                    "moments",
	spanSetGlobalStats:             "moments",
	spanTrainLocal:                 "train",
	spanParams:                     "upload",
	spanCheckpoint:                 "checkpoint",
	rpcPrefix + "set_params":       "broadcast",
	rpcPrefix + "eval_val":         "eval",
	rpcPrefix + "eval_test":        "eval",
	rpcPrefix + "local_means":      "moments",
	rpcPrefix + "central_moments":  "moments",
	rpcPrefix + "set_global_stats": "moments",
	rpcPrefix + "train_local":      "train",
	rpcPrefix + "get_params":       "upload",
}

// span is one timed call. Parent and Round are filled in when a training
// run's spans are assigned to the rounds its Result reports.
type span struct {
	Name   string
	Party  string
	Start  time.Time
	End    time.Time
	Parent string
	Round  int
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced runs pay only a nil check.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// begin starts a span and returns the function that ends it.
func (l *spanLog) begin(name, party string) func() {
	if l == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { l.add(span{Name: name, Party: party, Start: t0, End: time.Now(), Round: -1}) }
}

// take removes and returns the spans recorded so far.
func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.spans
	l.spans = nil
	return s
}

// tracedClient times every call into a fed.MomentClient.
type tracedClient struct {
	c   fed.MomentClient
	log *spanLog
}

var _ fed.MomentClient = (*tracedClient)(nil)

func (t *tracedClient) Name() string    { return t.c.Name() }
func (t *tracedClient) NumSamples() int { return t.c.NumSamples() }

func (t *tracedClient) Params() *nn.Params {
	defer t.log.begin(spanParams, t.c.Name())()
	return t.c.Params()
}

func (t *tracedClient) SetParams(global *nn.Params) error {
	defer t.log.begin(spanSetParams, t.c.Name())()
	return t.c.SetParams(global)
}

func (t *tracedClient) TrainLocal(round int) (float64, error) {
	defer t.log.begin(spanTrainLocal, t.c.Name())()
	return t.c.TrainLocal(round)
}

func (t *tracedClient) EvalVal() (int, int) {
	defer t.log.begin(spanEvalVal, t.c.Name())()
	return t.c.EvalVal()
}

func (t *tracedClient) EvalTest() (int, int) {
	defer t.log.begin(spanEvalTest, t.c.Name())()
	return t.c.EvalTest()
}

func (t *tracedClient) LocalMeans() ([]*mat.Dense, int, error) {
	defer t.log.begin(spanLocalMeans, t.c.Name())()
	return t.c.LocalMeans()
}

func (t *tracedClient) CentralAroundGlobal(globalMeans []*mat.Dense) ([][]*mat.Dense, int, error) {
	defer t.log.begin(spanCentral, t.c.Name())()
	return t.c.CentralAroundGlobal(globalMeans)
}

func (t *tracedClient) SetGlobalStats(means []*mat.Dense, central [][]*mat.Dense) {
	defer t.log.begin(spanSetGlobalStats, t.c.Name())()
	t.c.SetGlobalStats(means, central)
}

// probes are a traced run's instruments. The zero value traces nothing.
type probes struct {
	// log receives the spans of the client decorator and checkpoint timer.
	log *spanLog
	// rec is the program's telemetry.Aggregator, attached to the run, the
	// transport and the service.
	rec *telemetry.Aggregator
	// tracer is the program's obs.Tracer; sink copies its rpc and codec
	// spans into log.
	tracer *obs.Tracer
	sink   *tracerSink
}

func (p probes) recorder() telemetry.Recorder {
	if p.rec == nil {
		return nil
	}
	return p.rec
}

// tracerSink receives the program's obs.Tracer spans. It copies the
// coordinator's rpc spans and the codec spans into log, sums the codec
// durations, and drops every other span. The tracer emits a span as it
// ends, so the span ends now and started DurNs ago, on this process's
// monotonic clock like the benchmark's own spans.
type tracerSink struct {
	log          *spanLog
	encNs, decNs atomic.Int64
}

func (c *tracerSink) EmitRecord(v any) {
	rec, ok := v.(obs.SpanRecord)
	if !ok {
		return
	}
	end := time.Now()
	s := span{Start: end.Add(-time.Duration(rec.DurNs)), End: end, Round: -1}
	switch rec.Name {
	case obs.SpanEncode:
		c.encNs.Add(rec.DurNs)
		s.Name = spanEncode
	case obs.SpanDecode:
		c.decNs.Add(rec.DurNs)
		s.Name = spanDecode
	case obs.SpanRPC:
		op, _ := rec.Attrs[obs.AttrOp].(string)
		s.Name = rpcPrefix + op
		s.Party, _ = rec.Attrs[obs.AttrParty].(string)
	default:
		return
	}
	c.log.add(s)
}

// timedCheckpointer wraps a fed.Config.CheckpointWriter with a span.
func timedCheckpointer(w func(*fed.Checkpoint) error, log *spanLog) func(*fed.Checkpoint) error {
	if log == nil {
		return w
	}
	return func(ck *fed.Checkpoint) error {
		defer log.begin(spanCheckpoint, "")()
		return w(ck)
	}
}

// countingConn counts the bytes a dialled loopback connection carries.
type countingConn struct {
	net.Conn
	rx, tx *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tx.Add(int64(n))
	return n, err
}

// roundProfile is the per-round breakdown of one traced round.
type roundProfile struct {
	wall      float64            // round start to next round start, s
	phase     map[string]float64 // phase → wall span of its calls, s
	busy      map[string]float64 // client span name → busy seconds summed over parties
	calls     int                // client calls in the round
	coordSelf float64            // wall with no client call, rpc or checkpoint in flight, s
	transport float64            // wall outside client calls, codec work and checkpoints, s
	straggler float64            // slowest party's train time over the median party's
	reconcile float64            // |Σ phases + coordSelf − wall| / wall
}

// profileRounds assigns a training run's spans to the rounds of its history
// (setting Parent and Round) and returns one profile per round. A round
// runs from its start to the next round's start, so the checkpoint written
// after a round belongs to it; spans outside every round (the bootstrap
// parameter fetch, the final scoring pass) parent under the run.
func profileRounds(runID string, hist []fed.RoundStats, spans []span) []roundProfile {
	n := len(hist)
	if n == 0 {
		return nil
	}
	ends := roundEnds(hist)
	for _, s := range spans {
		if s.Name == spanCheckpoint && !s.Start.Before(hist[n-1].End) && s.End.After(ends[n-1]) {
			ends[n-1] = s.End
		}
	}
	per := make([][]span, n)
	for i := range spans {
		s := &spans[i]
		r := sort.Search(n, func(r int) bool { return hist[r].Start.After(s.Start) }) - 1
		if r < 0 || !s.Start.Before(ends[r]) {
			s.Parent, s.Round = runID, -1
			continue
		}
		s.Parent, s.Round = fmt.Sprintf("%s/round-%d", runID, r), r
		per[r] = append(per[r], *s)
	}
	out := make([]roundProfile, n)
	for r := range out {
		out[r] = profileRound(hist[r].Start, ends[r], per[r])
	}
	return out
}

// profileRound breaks one round down. A span with a phase — a client call,
// a coordinator rpc or a checkpoint — is work in flight; a codec span takes
// the phase of the remote call it serves (see codecPhase). A phase's time
// is the envelope of its spans, and coordinator self time is the wall time
// with nothing in flight. Phases plus self time therefore add up to the
// wall time only when the phases do not overlap and every instant inside
// an envelope has something in flight; reconcile is by how much they miss.
func profileRound(start, end time.Time, spans []span) roundProfile {
	p := roundProfile{wall: end.Sub(start).Seconds(), phase: map[string]float64{}, busy: map[string]float64{}}
	var rpcs []span
	for _, s := range spans {
		if strings.HasPrefix(s.Name, rpcPrefix) {
			rpcs = append(rpcs, s)
		}
	}
	envelope := map[string]interval{}
	var inFlight, local []interval
	train := map[string]float64{}
	for _, s := range spans {
		x := interval{s.Start, s.End}
		codecSpan := s.Name == spanEncode || s.Name == spanDecode
		ph := phaseOf[s.Name]
		if codecSpan {
			ph = codecPhase(s, rpcs)
		}
		if strings.HasPrefix(s.Name, clientPrefix) {
			d := s.End.Sub(s.Start).Seconds()
			p.busy[s.Name] += d
			p.calls++
			if s.Name == spanTrainLocal {
				train[s.Party] += d
			}
		}
		if codecSpan || s.Name == spanCheckpoint || strings.HasPrefix(s.Name, clientPrefix) {
			local = append(local, x)
		}
		if ph == "" {
			continue
		}
		inFlight = append(inFlight, x)
		if cur, ok := envelope[ph]; ok {
			if x.a.Before(cur.a) {
				cur.a = x.a
			}
			if x.b.After(cur.b) {
				cur.b = x.b
			}
			x = cur
		}
		envelope[ph] = x
	}
	p.coordSelf = p.wall - union(inFlight)
	p.transport = p.wall - union(local)
	phaseSum := 0.0
	for name, x := range envelope {
		d := x.b.Sub(x.a).Seconds()
		p.phase[name] = d
		phaseSum += d
	}
	if p.wall > 0 {
		p.reconcile = math.Abs(phaseSum+p.coordSelf-p.wall) / p.wall
	}
	if len(train) > 0 {
		ts := make([]float64, 0, len(train))
		for _, v := range train {
			ts = append(ts, v)
		}
		if m := median(ts); m > 0 {
			p.straggler = quantile(ts, 1) / m
		}
	}
	return p
}

// codecPhase is the phase of the remote call a codec span serves: the rpc
// it runs inside (a party decoding a request or encoding a reply), else,
// for an encode, the next rpc to start (the coordinator encodes a request
// before sending it) and, for a decode, the last rpc to end (it decodes a
// reply after receiving it). A codec span no rpc explains has no phase.
func codecPhase(s span, rpcs []span) string {
	var near *span
	for i := range rpcs {
		c := &rpcs[i]
		switch {
		case !s.Start.Before(c.Start) && !s.End.After(c.End):
			return phaseOf[c.Name]
		case s.Name == spanEncode && !c.Start.Before(s.End) && (near == nil || c.Start.Before(near.Start)):
			near = c
		case s.Name == spanDecode && !c.End.After(s.Start) && (near == nil || c.End.After(near.End)):
			near = c
		}
	}
	if near == nil {
		return ""
	}
	return phaseOf[near.Name]
}

type interval struct{ a, b time.Time }

// union is the total length of the intervals' union, s.
func union(ivs []interval) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var tot time.Duration
	var cur interval
	for i, x := range ivs {
		if i == 0 || x.a.After(cur.b) {
			if i > 0 {
				tot += cur.b.Sub(cur.a)
			}
			cur = x
			continue
		}
		if x.b.After(cur.b) {
			cur.b = x.b
		}
	}
	if len(ivs) > 0 {
		tot += cur.b.Sub(cur.a)
	}
	return tot.Seconds()
}

// writeSpans writes the kept spans, one JSON object per line, with times in
// nanoseconds since t0.
func writeSpans(path string, t0 time.Time, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			Name    string `json:"name"`
			Party   string `json:"party,omitempty"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
			Parent  string `json:"parent"`
			Round   int    `json:"round"`
		}{s.Name, s.Party, s.Start.Sub(t0).Nanoseconds(), s.End.Sub(t0).Nanoseconds(), s.Parent, s.Round}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
