package streamrt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// buildDataFrame encodes one DATA frame via the real send path (a link
// writing into a throwaway buffer would need a socket; sendData's
// encoding is replicated through the append helpers it uses).
func buildDataFrame(gen uint32, op, inst uint16, recs [][3]string) []byte {
	dst, off := beginFrame(nil, frameData)
	dst = appendU32(dst, gen)
	dst = appendU16(dst, op)
	dst = appendU16(dst, inst)
	dst = appendU32(dst, uint32(len(recs)))
	for _, r := range recs {
		dst = appendU32(dst, uint32(len(r[0])))
		dst = append(dst, r[0]...)
		dst = appendU64(dst, uint64(time.Now().UnixNano()))
		dst = appendU32(dst, uint32(len(r[1])))
		dst = append(dst, r[1]...)
	}
	return endFrame(dst, off)
}

// longKey is longer than protocol 1's u16 key length could carry.
var longKey = strings.Repeat("k", 70000)

// decodeAll drives the full receive-side decode surface over a byte
// stream, the shared core of the fuzz target and the error-path tests.
func decodeAll(data []byte) error {
	r := bytes.NewReader(data)
	var buf []byte
	for {
		typ, payload, nbuf, err := readFrame(r, buf)
		buf = nbuf
		if err != nil {
			return err
		}
		if len(payload) > maxFrameLen {
			panic("payload exceeds declared maximum")
		}
		switch typ {
		case frameHello:
			parseHello(payload)
		case frameData:
			h, recs, err := parseDataHeader(payload)
			if err != nil {
				continue
			}
			for i := uint32(0); i < h.count; i++ {
				_, _, _, rest, err := nextRecord(recs)
				if err != nil {
					break
				}
				recs = rest
			}
		case frameCredit:
			parseCredit(payload)
		case frameControl, frameReply:
			parseCtrl(payload)
		}
	}
}

// FuzzFrameDecode pins the decoder's safety contract: any byte stream —
// truncated, oversized, corrupt-length, bit-flipped — either decodes or
// errors cleanly. No panic, no over-read (slice bounds are the proof:
// an over-read panics under the race/fuzz harness), no unbounded
// allocation (readFrame rejects lengths beyond maxFrameLen before
// allocating).
func FuzzFrameDecode(f *testing.F) {
	// Seed corpus: every frame type well-formed, then the classic
	// corruptions.
	valid := appendHello(nil, helloMsg{proto: frameProto, sender: 3})
	valid = appendCredit(valid, creditMsg{gen: 1, op: 2, inst: 3, credits: 4})
	valid = append(valid, buildDataFrame(1, 2, 0, nil)...) // end-of-stream marker
	valid = appendCtrl(valid, frameControl, ctrlMsg{req: 9, kind: ctrlDeploy, body: []byte(`{"workload":"x"}`)})
	valid = append(valid, buildDataFrame(7, 1, 0, [][3]string{{"k1", "v1"}, {"", "v2"}, {"k3", ""}})...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // truncated mid-frame
	f.Add([]byte{0, 0, 0, 0})   // zero-length frame
	oversized := binary.LittleEndian.AppendUint32(nil, maxFrameLen+1)
	f.Add(append(oversized, 0xFF))
	// Data frame whose count promises more records than the payload holds.
	lying := buildDataFrame(1, 0, 0, [][3]string{{"k", "v"}})
	binary.LittleEndian.PutUint32(lying[4+1+4+2+2:], 1000)
	f.Add(lying)
	// Record whose value length points past the payload end.
	overVal := buildDataFrame(1, 0, 0, [][3]string{{"k", "v"}})
	binary.LittleEndian.PutUint32(overVal[len(overVal)-5:], 1<<30)
	f.Add(overVal)
	f.Add(buildDataFrame(1, 0, 0, [][3]string{{longKey, "v"}}))
	f.Add([]byte{})
	f.Add([]byte{5})

	f.Fuzz(func(t *testing.T, data []byte) {
		decodeAll(data)
	})
}

func TestFrameDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty stream", nil, io.EOF},
		{"zero-length frame", []byte{0, 0, 0, 0}, errFrameEmpty},
		{"oversized length", binary.LittleEndian.AppendUint32(nil, maxFrameLen+1), errFrameLength},
		{"truncated header", []byte{9, 0}, io.ErrUnexpectedEOF},
		{"truncated payload", []byte{9, 0, 0, 0, frameData, 1, 2}, io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		if err := decodeAll(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// A clean boundary after valid frames is io.EOF, not an error.
	ok := buildDataFrame(1, 2, 0, nil)
	ok = append(ok, buildDataFrame(1, 2, 1, [][3]string{{longKey, "v"}})...)
	if err := decodeAll(ok); !errors.Is(err, io.EOF) {
		t.Errorf("clean stream: got %v, want io.EOF", err)
	}
	// The same stream cut mid-frame is an unexpected EOF.
	if err := decodeAll(ok[:len(ok)-1]); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("cut stream: got %v, want io.ErrUnexpectedEOF", err)
	}
	// A record whose key runs past the payload is a short frame.
	payload := ok[len(buildDataFrame(1, 2, 0, nil))+5:]
	_, recs, _ := parseDataHeader(payload[:dataHeaderLen+4+len(longKey)/2])
	if _, _, _, _, err := nextRecord(recs); !errors.Is(err, errFrameShort) {
		t.Errorf("key past payload: got %v, want errFrameShort", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	stream = appendHello(stream, helloMsg{proto: frameProto, sender: 12})
	stream = appendCredit(stream, creditMsg{gen: 5, op: 6, inst: 7, credits: 8})
	stream = append(stream, buildDataFrame(5, 6, 7, nil)...)
	stream = appendCtrl(stream, frameReply, ctrlMsg{req: 44, kind: 1, body: []byte(`{}`)})
	recs := [][3]string{{"alpha", "one"}, {"beta", ""}, {"", "three"}, {longKey, "four"}}
	stream = append(stream, buildDataFrame(3, 1, 2, recs)...)

	r := bytes.NewReader(stream)
	var buf []byte
	next := func(wantTyp byte) []byte {
		t.Helper()
		typ, payload, nbuf, err := readFrame(r, buf)
		buf = nbuf
		if err != nil || typ != wantTyp {
			t.Fatalf("readFrame: typ=%d err=%v, want typ=%d", typ, err, wantTyp)
		}
		return payload
	}
	if h, err := parseHello(next(frameHello)); err != nil || h.sender != 12 {
		t.Fatalf("hello: %+v %v", h, err)
	}
	if c, err := parseCredit(next(frameCredit)); err != nil || c != (creditMsg{gen: 5, op: 6, inst: 7, credits: 8}) {
		t.Fatalf("credit: %+v %v", c, err)
	}
	if h, rest, err := parseDataHeader(next(frameData)); err != nil || h != (dataHeader{gen: 5, op: 6, inst: 7}) || len(rest) != 0 {
		t.Fatalf("end-of-stream: %+v %d %v", h, len(rest), err)
	}
	if m, err := parseCtrl(next(frameReply)); err != nil || m.req != 44 || m.kind != 1 || string(m.body) != `{}` {
		t.Fatalf("ctrl: %+v %v", m, err)
	}
	h, rest, err := parseDataHeader(next(frameData))
	if err != nil || h.gen != 3 || h.op != 1 || h.inst != 2 || h.count != uint32(len(recs)) {
		t.Fatalf("data header: %+v %v", h, err)
	}
	for i, want := range recs {
		key, _, val, r2, err := nextRecord(rest)
		rest = r2
		if err != nil || string(key) != want[0] || string(val) != want[1] {
			t.Fatalf("record %d: %d-byte key, val=%q err=%v", i, len(key), val, err)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("trailing bytes: %d", len(rest))
	}
}

func TestLocalSeqStriping(t *testing.T) {
	// Workers' stripes must partition [0, limit) exactly: every global
	// sequence emitted once, by exactly one worker.
	for _, tc := range []struct {
		nw    int
		block int64
		limit int64
	}{
		{2, 4, 10}, {2, 8192, 30000}, {3, 7, 100}, {3, 7, 21}, {4, 1, 13}, {1, 8192, 999},
	} {
		seen := make(map[int64]int)
		var total int64
		for w := 0; w < tc.nw; w++ {
			in := &instance{seqNW: tc.nw, seqWorker: w, seqBlock: tc.block}
			lim := localSeqLimit(tc.limit, w, tc.nw, tc.block)
			total += lim
			for c := int64(0); c < lim; c++ {
				seen[in.seqAt(c)]++
			}
		}
		if total != tc.limit {
			t.Fatalf("nw=%d block=%d limit=%d: stripes sum to %d", tc.nw, tc.block, tc.limit, total)
		}
		for s := int64(0); s < tc.limit; s++ {
			if seen[s] != 1 {
				t.Fatalf("nw=%d block=%d limit=%d: seq %d emitted %d times", tc.nw, tc.block, tc.limit, s, seen[s])
			}
		}
		if int64(len(seen)) != tc.limit {
			t.Fatalf("nw=%d block=%d limit=%d: %d distinct seqs outside range", tc.nw, tc.block, tc.limit, len(seen))
		}
	}
}
