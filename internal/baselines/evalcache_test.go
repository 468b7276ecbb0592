package baselines

import (
	"testing"

	"fedomd/internal/fed"
	"fedomd/internal/nn"
	"fedomd/internal/telemetry"
)

func evalCacheOf(t *testing.T, c fed.Client) *nn.EvalCache {
	switch k := c.(type) {
	case *Client:
		return k.eval
	case *ScaffoldClient:
		return k.eval
	case *FedLITClient:
		return k.eval
	case *FedSageClient:
		return k.eval
	}
	t.Fatalf("no eval cache on %T", c)
	return nil
}

func tapeOps() int64 { return telemetry.GlobalCounters()["ad/tape_ops"] }

// TestBaselineEvalSharesOneForward pins that EvalTest reuses EvalVal's
// forward at the same weights, and that after training both still equal an
// uncached reference built from the same seed.
func TestBaselineEvalSharesOneForward(t *testing.T) {
	g := tinyGraph(t, 51)
	opts := quickOpts()
	opts.Dropout = 0.3
	builders := map[string]func() (fed.Client, error){
		"FedMLP":   func() (fed.Client, error) { return NewFedMLP("m", g, opts, 3) },
		"FedProx":  func() (fed.Client, error) { return NewFedProx("p", g, opts, 3) },
		"FedGCN":   func() (fed.Client, error) { return NewGCNClient("g", g, opts, 3) },
		"SCAFFOLD": func() (fed.Client, error) { return NewScaffold("s", g, opts, 3) },
		"FedLIT":   func() (fed.Client, error) { return NewFedLIT("l", g, 3, opts, 3) },
		"FedSage+": func() (fed.Client, error) { return NewFedSage("f", g, opts, 3) },
	}
	for name, build := range builders {
		c, err := build()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			global := c.Params().Clone()
			for _, k := range []fed.Client{c, ref} {
				if err := k.SetParams(global); err != nil {
					t.Fatal(err)
				}
				if _, err := k.TrainLocal(round); err != nil {
					t.Fatal(err)
				}
			}
			before := tapeOps()
			vc, vt := c.EvalVal()
			mid := tapeOps()
			tc, tt := c.EvalTest()
			if after := tapeOps(); mid == before || after != mid {
				t.Fatalf("%s round %d: EvalVal recorded %d ops, EvalTest %d; want one shared forward",
					name, round, mid-before, after-mid)
			}
			cache := evalCacheOf(t, ref)
			cache.Release()
			rvc, rvt := ref.EvalVal()
			cache.Release()
			rtc, rtt := ref.EvalTest()
			if vc != rvc || vt != rvt || tc != rtc || tt != rtt {
				t.Fatalf("%s round %d: cached %d/%d %d/%d, uncached %d/%d %d/%d",
					name, round, vc, vt, tc, tt, rvc, rvt, rtc, rtt)
			}
		}
	}
}
