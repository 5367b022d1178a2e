package streamrt

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// recvWithin receives from c, failing the test after five seconds.
func recvWithin[T any](t *testing.T, c <-chan T) T {
	t.Helper()
	select {
	case v := <-c:
		return v
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting on a channel")
		panic("unreachable")
	}
}

// recvPair joins a sending link to a receiving one over net.Pipe: the
// receiver's dataReadLoop delivers through rt, and the sender's
// creditReadLoop refills the token pools of sendRT (nil: none).
func recvPair(t *testing.T, rt, sendRT *recvTable) (send, recv *link) {
	t.Helper()
	rc, sc := net.Pipe()
	recvTr, sendTr := &transport{}, &transport{}
	recvTr.recv.Store(rt)
	sendTr.recv.Store(sendRT)
	recv, send = newLink(rc, 0, &linkStats{}), newLink(sc, 1, &linkStats{})
	go recv.writeLoop()
	go send.writeLoop()
	go recvTr.dataReadLoop(recv, bufio.NewReader(rc), nil)
	go sendTr.creditReadLoop(send)
	t.Cleanup(func() {
		send.close(nil)
		recv.close(nil)
	})
	return send, recv
}

// TestReceivePathMarkers: an empty DATA frame of the current generation
// puts exactly one end-of-stream marker on its instance's channel, a
// frame of a drained generation is dropped, and a marker returns no
// credit while a consumed batch returns one.
func TestReceivePathMarkers(t *testing.T) {
	h := &host{cfg: Config{BatchSize: 4}}
	c0, c1 := make(chan *batch, 4), make(chan *batch, 4)
	pool0, pool1 := make(chan struct{}, 1), make(chan struct{}, 1)
	rt := &recvTable{gen: 3, host: h, chans: [][]chan *batch{nil, {c0, c1}}}
	send, _ := recvPair(t, rt, &recvTable{gen: 3, credits: [][]chan struct{}{nil, {pool0, pool1}}})

	rec := &batch{msgs: []message{{key: "k", encLen: 1}}, buf: []byte("v")}
	send.sendData(2, 1, 0, rec, nil) // stale generation
	send.sendData(3, 1, 0, endOfStream, nil)
	send.sendData(3, 1, 1, rec, nil)

	b := recvWithin(t, c1)
	if b == endOfStream || len(b.msgs) != 1 || b.msgs[0].key != "k" {
		t.Fatalf("instance 1 got %+v, want the one record", b)
	}
	// Frames are handled in order, so instance 0 has all it will get.
	if n := len(c0); n != 1 {
		t.Fatalf("instance 0 holds %d items, want exactly the marker", n)
	}
	if <-c0 != endOfStream {
		t.Fatal("instance 0 got a batch, want the marker")
	}
	// Consuming the batch returns its credit. Credits travel in order
	// too, so once it is in, one the marker returned would be as well.
	h.putBatch(b)
	recvWithin(t, pool1)
	if len(pool0) != 0 {
		t.Fatal("a marker returned credit")
	}
}

// TestReceivePathRejectsMisroutedFrames: a frame of a future generation,
// or for an operator or instance not hosted here, closes the link with an
// error naming the operator and instance.
func TestReceivePathRejectsMisroutedFrames(t *testing.T) {
	for _, tc := range []struct {
		name     string
		gen      uint32
		op, inst uint16
		want     string
	}{
		{"future generation", 4, 1, 0, "future generation 4"},
		{"unhosted operator", 3, 0, 1, "operator not hosted"},
		{"unknown operator", 3, 9, 1, "operator not hosted"},
		{"unhosted instance", 3, 1, 1, "instance not hosted"},
		{"unknown instance", 3, 1, 5, "instance not hosted"},
	} {
		rt := &recvTable{gen: 3, host: &host{}, chans: [][]chan *batch{nil, {make(chan *batch, 1), nil}}}
		send, recv := recvPair(t, rt, nil)
		send.sendData(tc.gen, tc.op, tc.inst, endOfStream, nil)
		recvWithin(t, recv.closed)
		err := recv.failure()
		names := fmt.Sprintf("operator %d instance %d", tc.op, tc.inst)
		if err == nil || !strings.Contains(err.Error(), names) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: link closed with %v, want %q and %q", tc.name, err, names, tc.want)
		}
	}
}
