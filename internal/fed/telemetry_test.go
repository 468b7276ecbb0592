package fed

import (
	"errors"
	"testing"

	"fedomd/internal/mat"
	"fedomd/internal/telemetry"
)

// TestRunRecordsTelemetry checks the runtime's phase spans, per-client train
// histograms and comms counters line up with the run's actual shape.
func TestRunRecordsTelemetry(t *testing.T) {
	const rounds, m = 4, 3
	agg := telemetry.NewAggregator()
	clients := make([]Client, m)
	for i := range clients {
		clients[i] = newFakeClient(string(rune('a'+i)), 1, 0)
	}
	res, err := Run(Config{Rounds: rounds, Recorder: agg}, clients)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		MetricRoundSeconds, MetricBroadcastSeconds, MetricEvalSeconds,
		MetricTrainSeconds, MetricAuxSeconds, MetricAggregateSeconds,
	} {
		s, ok := agg.Histogram(name)
		if !ok || s.Count != rounds {
			t.Fatalf("%s count = %d (present=%v) want %d", name, s.Count, ok, rounds)
		}
	}
	if s, _ := agg.Histogram(MetricClientTrainSecs); s.Count != rounds*m {
		t.Fatalf("client train samples = %d want %d", s.Count, rounds*m)
	}
	// Plain clients: no moment exchange, so no moments span.
	if _, ok := agg.Histogram(MetricMomentsSeconds); ok {
		t.Fatal("moments span recorded without moment clients")
	}
	if got := agg.Counter(MetricRounds); got != rounds {
		t.Fatalf("rounds counter = %d want %d", got, rounds)
	}
	if got := agg.Counter(MetricActiveClients); got != rounds*m {
		t.Fatalf("active clients counter = %d want %d", got, rounds*m)
	}
	if got := agg.Counter(MetricBytesUp); got != res.TotalBytesUp {
		t.Fatalf("bytes up counter = %d, result says %d", got, res.TotalBytesUp)
	}
	if got := agg.Counter(MetricBytesDown); got != res.TotalBytesDown {
		t.Fatalf("bytes down counter = %d, result says %d", got, res.TotalBytesDown)
	}
	if v, ok := agg.GaugeValue(MetricValAcc); !ok || v != res.History[rounds-1].ValAcc {
		t.Fatalf("val acc gauge = %v,%v want %v", v, ok, res.History[rounds-1].ValAcc)
	}

	// A failed train is not a latency sample: under DropRound, with one
	// party whose training always fails, the per-client histogram books only
	// the trains that finished — in both round bodies.
	for _, mode := range []AggregationMode{AggSync, AggAsync} {
		agg := telemetry.NewAggregator()
		clients := make([]Client, m)
		for i := range clients {
			clients[i] = newFakeClient(string(rune('a'+i)), 1, 0)
		}
		clients[0].(*fakeClient).trainErr = errors.New("boom")
		res, err := Run(Config{Rounds: rounds, Recorder: agg, Policy: DropRound, Aggregation: mode, BufferK: m - 1}, clients)
		if err != nil {
			t.Fatal(err)
		}
		// An async failure still in flight when the run ends is never booked,
		// so only the sync tally is exact.
		if got := res.ClientFailures["a"]; mode == AggSync && got != rounds {
			t.Fatalf("%s: party a failed %d trains, want %d", mode, got, rounds)
		}
		if s, _ := agg.Histogram(MetricClientTrainSecs); s.Count != rounds*(m-1) {
			t.Fatalf("%s: client train samples = %d, want %d successful trains", mode, s.Count, rounds*(m-1))
		}
	}
}

// TestRunNilRecorderIsFree ensures a nil Recorder runs through the no-op
// path (no panic, identical results to an instrumented run).
func TestRunNilRecorderIsFree(t *testing.T) {
	mk := func(rec telemetry.Recorder) *Result {
		a := newFakeClient("a", 3, 0)
		a.trainVal = 1
		b := newFakeClient("b", 1, 0)
		b.trainVal = 5
		res, err := Run(Config{Rounds: 2, Recorder: rec}, []Client{a, b})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := mk(nil)
	instrumented := mk(telemetry.NewAggregator())
	if plain.FinalParams.Get("w").At(0, 0) != instrumented.FinalParams.Get("w").At(0, 0) {
		t.Fatal("telemetry changed the training result")
	}
}

// TestMomentExchangeSpanRecorded covers the moments phase with moment
// clients present.
func TestMomentExchangeSpanRecorded(t *testing.T) {
	agg := telemetry.NewAggregator()
	d1, _ := mat.NewFromRows([][]float64{{0}, {2}})
	d2, _ := mat.NewFromRows([][]float64{{10}, {12}})
	a := &momentFake{fakeClient: newFakeClient("a", 2, 0), data: d1}
	b := &momentFake{fakeClient: newFakeClient("b", 2, 0), data: d2}
	if _, err := Run(Config{Rounds: 2, Recorder: agg}, []Client{a, b}); err != nil {
		t.Fatal(err)
	}
	if s, ok := agg.Histogram(MetricMomentsSeconds); !ok || s.Count != 2 {
		t.Fatalf("moments span count = %d (present=%v) want 2", s.Count, ok)
	}
}
