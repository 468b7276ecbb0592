package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"fedomd/internal/fed"
)

type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each prints exactly the metrics BENCHMARK.json declares for
// that mode, each with its declared unit.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for _, dw := range d.Workloads {
		if _, err := findWorkload(dw.Name); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.name, seed: 3, seconds: 1, trace: trace, smoke: true, outDir: t.TempDir()}
			res, err := run(o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.name, trace, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, p := tail(xs); p != 90 || v != quantile(xs, 0.9) {
		t.Errorf("tail of 100 samples = p%g %v, want p90", p, v)
	}
	if _, p := tail(xs[:12]); p != 50 {
		t.Errorf("tail of 12 samples = p%g, want the p50 fallback", p)
	}
	if v := quantile([]float64{1, 2, math.Inf(1)}, 0.99); !math.IsInf(v, 1) {
		t.Errorf("quantile over a failed request = %v, want +Inf", v)
	}
}

// TestProfileRounds checks that spans are parented under the round they
// start in, the checkpoint after the last round belongs to it, codec spans
// take the phase of the remote call they serve, and the reconciliation
// reports time inside a phase envelope that nothing covers.
func TestProfileRounds(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	hist := []fed.RoundStats{
		{Start: at(0), End: at(90)},
		{Start: at(100), End: at(190)},
		{Start: at(200), End: at(290)},
	}
	spans := []span{
		{Name: spanParams, Start: at(-5), End: at(-4)}, // bootstrap fetch, before round 0
		// Round 0: in-process, two parties.
		{Name: spanSetParams, Party: "a", Start: at(1), End: at(5)},
		{Name: spanTrainLocal, Party: "a", Start: at(10), End: at(50)},
		{Name: spanTrainLocal, Party: "b", Start: at(10), End: at(90)},
		// Round 1: one party over the wire. The coordinator encodes the
		// broadcast before its rpc and decodes the upload after its rpc;
		// the party decodes inside the rpc.
		{Name: spanEncode, Start: at(100), End: at(105)},
		{Name: rpcPrefix + "set_params", Party: "a", Start: at(105), End: at(110)},
		{Name: spanSetParams, Party: "a", Start: at(106), End: at(109)},
		{Name: spanDecode, Start: at(106), End: at(107)},
		{Name: rpcPrefix + "train_local", Party: "a", Start: at(110), End: at(150)},
		{Name: spanTrainLocal, Party: "a", Start: at(111), End: at(149)},
		{Name: rpcPrefix + "get_params", Party: "a", Start: at(150), End: at(155)},
		{Name: spanDecode, Start: at(155), End: at(158)},
		// Round 2: the coordinator works between the two moment uploads,
		// inside the moments envelope, with no call in flight.
		{Name: spanLocalMeans, Party: "a", Start: at(200), End: at(210)},
		{Name: spanCentral, Party: "a", Start: at(230), End: at(240)},
		{Name: spanCheckpoint, Start: at(291), End: at(300)},
	}
	ps := profileRounds("run", hist, spans)
	if spans[0].Round != -1 || spans[0].Parent != "run" || spans[1].Round != 0 || spans[4].Round != 1 || spans[len(spans)-1].Round != 2 {
		t.Fatalf("round assignment wrong: %+v", spans)
	}
	if len(ps) != 3 {
		t.Fatalf("%d profiles, want 3", len(ps))
	}
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("round 0 straggler ratio", ps[0].straggler, 80.0/60)
	near("round 0 coordinator self time", ps[0].coordSelf, 0.016)
	near("round 0 reconciliation", ps[0].reconcile, 0)
	near("round 1 broadcast phase", ps[1].phase["broadcast"], 0.010)
	near("round 1 upload phase", ps[1].phase["upload"], 0.008)
	near("round 1 coordinator self time", ps[1].coordSelf, 0.042)
	near("round 1 transport self time", ps[1].transport, 0.051)
	near("round 1 reconciliation", ps[1].reconcile, 0)
	near("round 1 calls", float64(ps[1].calls), 2)
	near("round 2 wall, checkpoint included", ps[2].wall, 0.1)
	near("round 2 reconciliation", ps[2].reconcile, 0.2)
}

func TestCheckTraining(t *testing.T) {
	res := func(losses ...float64) *fed.Result {
		r := &fed.Result{TestAtBestVal: 0.7, FinalTestAcc: 0.7, BestValAcc: 0.7, FinalValAcc: 0.7}
		for _, l := range losses {
			r.History = append(r.History, fed.RoundStats{TrainLoss: l})
		}
		return r
	}
	if err := checkTraining(res(2.0, 1.9, 1.8), 0.5, minLossDrop); err != nil {
		t.Errorf("a learning run failed the check: %v", err)
	}
	if err := checkTraining(res(2.0, 2.01, 1.995), 0.5, minLossDrop); err == nil {
		t.Error("a run whose loss did not fall passed the check")
	}
	if err := checkTraining(res(2.0, math.NaN()), 0.5, minLossDrop); err == nil {
		t.Error("a run whose loss became NaN passed the check")
	}
	if err := checkTraining(res(2.0, 1.0), 0.8, minLossDrop); err == nil {
		t.Error("a run below the accuracy floor passed the check")
	}
}
