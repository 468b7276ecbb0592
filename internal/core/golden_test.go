package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"sync"
	"testing"

	"fedomd/internal/codec"
	"fedomd/internal/fed"
)

// The golden digests pin a 10-round FedOMD run bit for bit: per-round
// TrainLoss/ValAcc/TestAcc, the final scores and byte totals, and every
// float of FinalParams. They were recorded before the client learned to
// share one inference forward between evaluation and the statistics
// exchange, so any drift that sharing introduces fails here.
const (
	goldenInProcess = "9439b42bed79bd3a"
	goldenLoopback  = "fbe4fbe8b86fee74"
)

// goldenFleet builds three FedOMD parties with dropout on, so the training
// RNG stream is part of what the digest covers.
func goldenFleet(t *testing.T) []fed.Client {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Hidden = 16
	clients, _, err := NewClients(tinyGraph(t, 31), 3, 1.0, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]fed.Client, len(clients))
	for i, c := range clients {
		out[i] = c
	}
	return out
}

// runDigest hashes the bit patterns of everything a run reports.
func runDigest(res *fed.Result) string {
	h := fnv.New64a()
	put := func(v float64) { fmt.Fprintf(h, "%016x", math.Float64bits(v)) }
	for _, r := range res.History {
		put(r.TrainLoss)
		put(r.ValAcc)
		put(r.TestAcc)
	}
	put(res.BestValAcc)
	put(res.TestAtBestVal)
	put(res.FinalValAcc)
	put(res.FinalTestAcc)
	fmt.Fprintf(h, "%d/%d/%d", res.BestRound, res.TotalBytesUp, res.TotalBytesDown)
	for i := 0; i < res.FinalParams.Len(); i++ {
		for _, v := range res.FinalParams.At(i).Data() {
			put(v)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestGoldenRunInProcess(t *testing.T) {
	res, err := fed.Run(fed.Config{Rounds: 10}, goldenFleet(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := runDigest(res); got != goldenInProcess {
		t.Fatalf("in-process run digest %s, golden %s", got, goldenInProcess)
	}
}

func TestGoldenRunLoopbackQ8(t *testing.T) {
	q8, err := codec.Parse("q8", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	parties := goldenFleet(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var conns []net.Conn
	var wg sync.WaitGroup
	errs := make([]error, len(parties))
	// Dial in a fixed order so the coordinator numbers parties the same way
	// on every run.
	for i, p := range parties {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
		wg.Add(1)
		go func(i int, p fed.Client) {
			defer wg.Done()
			errs[i] = fed.ServeClientConnOpts(conn, p, fed.ServeOptions{})
		}(i, p)
	}
	res, err := fed.RunDistributedOpts(fed.Config{Rounds: 10, Codec: q8}, ln, len(parties), fed.TransportOptions{})
	for _, c := range conns {
		c.Close()
	}
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if perr := errors.Join(errs...); perr != nil {
		t.Fatalf("party: %v", perr)
	}
	if got := runDigest(res); got != goldenLoopback {
		t.Fatalf("loopback q8 run digest %s, golden %s", got, goldenLoopback)
	}
}
