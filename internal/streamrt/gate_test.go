package streamrt

import (
	"fmt"
	"testing"
	"time"

	"ds2/internal/dataflow"
)

// localBatch returns a local batch of n records.
func localBatch(n int) *batch { return &batch{msgs: make([]message, n)} }

// queuedRecords reads g's count of admitted, unreleased records.
func queuedRecords(g *gate) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.queued
}

// TestGateAdmitsOneBatchWhateverItsSize: an empty gate admits a batch
// larger than its budget, and the next batch waits until that one is
// released.
func TestGateAdmitsOneBatchWhateverItsSize(t *testing.T) {
	g := newGate(64)
	g.release(localBatch(0), drainBudget) // one record is the whole drain budget
	if g.budget != 1 {
		t.Fatalf("budget %d, want 1", g.budget)
	}
	g.admit(100)
	if q := queuedRecords(g); q != 100 {
		t.Fatalf("queued %d after admitting 100 records, want 100", q)
	}
	admitted := make(chan struct{})
	go func() {
		g.admit(1)
		close(admitted)
	}()
	select {
	case <-admitted:
		t.Fatal("a second batch was admitted past the budget")
	case <-time.After(20 * time.Millisecond):
	}
	g.release(localBatch(100), drainBudget)
	<-admitted
	if q := queuedRecords(g); q != 1 {
		t.Fatalf("queued %d, want the 1 record admitted after the release", q)
	}
}

// TestGateBudgetClamps: the budget is drainBudget over the receiver's
// per-record useful time, at least one record and at most the channel's
// ChannelCapacity × BatchSize, which it holds until the first booking.
func TestGateBudgetClamps(t *testing.T) {
	const ceiling = 16 * 256
	g := newGate(ceiling)
	if g.budget != ceiling {
		t.Fatalf("budget %d before any booking, want the maximum %d", g.budget, ceiling)
	}
	for _, c := range []struct {
		est  time.Duration
		want int
	}{
		{time.Nanosecond, ceiling}, // 10 M records of work: clamped to the channel
		{100 * time.Microsecond, 100},
		{4 * time.Millisecond, 2},
		{drainBudget, 1},
		{time.Second, 1}, // one batch always fits
		{0, ceiling},     // nothing measured
	} {
		g.release(localBatch(0), c.est)
		if g.budget != c.want {
			t.Errorf("est %v: budget %d, want %d", c.est, g.budget, c.want)
		}
	}
}

// TestGateBypass: a batch decoded off a transport link took a credit
// token, not gate room, so processing it releases nothing; an
// end-of-stream marker goes down the channel even when the gate is full.
func TestGateBypass(t *testing.T) {
	g := newGate(8)
	g.admit(3)
	g.release(&batch{msgs: make([]message, 5), from: recvOrigin{link: &link{}}}, 0)
	if q := queuedRecords(g); q != 3 {
		t.Fatalf("queued %d after a transport batch, want the 3 local records still held", q)
	}

	full := newGate(1)
	full.admit(1)
	c := make(chan *batch, 1)
	in := &instance{
		host: &host{cfg: Config{}.withDefaults()},
		outs: []outEdge{{chans: []chan *batch{c}, gates: []*gate{full}, pend: []*batch{nil}}},
	}
	in.local.DownWait = make([]time.Duration, 1)
	exited := make(chan struct{})
	go func() {
		in.drainExit()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		t.Fatal("the end-of-stream marker waited for gate room")
	}
	if b := <-c; b != endOfStream {
		t.Fatalf("drainExit sent %v, want the end-of-stream marker", b)
	}
	if q := queuedRecords(full); q != 1 {
		t.Fatalf("queued %d after the marker, want 1: a marker takes no credit", q)
	}
}

// TestGateManySendersOneSlowReceiver: six sources push into one slow
// keyed receiver, which is then rescaled to two while they are held at
// its gate. While it runs no gate holds a negative count or more than
// its maximum plus one batch; Stop returns; afterwards every admitted
// record has been released and the counts are exact against the source
// sequence.
func TestGateManySendersOneSlowReceiver(t *testing.T) {
	p, err := NewPipeline().
		AddSource("src", SourceSpec{
			Rate: func(float64) float64 { return 40000 },
			Next: func(seq int64) (string, any) { return fmt.Sprintf("k%02d", seq%37), "" },
		}).
		AddOperator("slow", OperatorSpec{
			Keyed: true,
			Process: func(state any, _ string, _ any, _ Emit) any {
				c, _ := state.(int)
				return c + 1
			},
			Cost: 100 * time.Microsecond,
		}).
		AddEdge("src", "slow").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(p, dataflow.Parallelism{"src": 6, "slow": 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := job.pl.(*host)
	cfg := h.cfg
	gates := func() []*gate {
		h.mu.Lock()
		defer h.mu.Unlock()
		var gs []*gate
		for _, in := range h.dep.insts["slow"] {
			gs = append(gs, in.gate)
		}
		return gs
	}
	var all []*gate
	watch := func(d time.Duration) {
		gs := gates()
		all = append(all, gs...)
		for end := time.Now().Add(d); time.Now().Before(end); time.Sleep(time.Millisecond) {
			for _, g := range gs {
				if q := queuedRecords(g); q < 0 || q > cfg.ChannelCapacity*cfg.BatchSize+cfg.BatchSize {
					t.Errorf("gate holds %d records", q)
					return
				}
			}
		}
	}
	watch(200 * time.Millisecond)
	if err := job.Rescale(dataflow.Parallelism{"src": 6, "slow": 2}); err != nil {
		t.Fatal(err)
	}
	watch(200 * time.Millisecond)

	var final map[string]map[string]any
	stopped := make(chan struct{})
	go func() {
		final = job.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(30 * time.Second):
		t.Fatal("Stop did not return: a sender is stuck at a gate")
	}
	for i, g := range all {
		if q := queuedRecords(g); q != 0 {
			t.Errorf("gate %d holds %d records after the drain, want 0", i, q)
		}
	}
	sum := 0
	for _, c := range final["slow"] {
		sum += c.(int)
	}
	if emitted := *h.seqs["src"]; int64(sum) != emitted || emitted == 0 {
		t.Fatalf("counted %d records, the sources emitted %d", sum, emitted)
	}
}
