package streamrt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The distributed exchange speaks length-prefixed binary frames over
// persistent TCP connections (one per ordered worker pair, plus one
// control connection per worker from the coordinator):
//
//	frame   := u32le length | u8 type | payload
//
// length counts the type byte plus the payload, so a receiver reads
// exactly 4+length bytes per frame. A DATA frame is one exchange batch,
// whose records carry the AppendEncoder bytes framed by the batch
// header rather than by per-record prefixes inside the value stream:
//
//	data    := u32 gen | u16 op | u16 inst | u32 count | count×record
//	record  := u32 keyLen | key | i64 srcUnixNano | u32 valLen | val
//
//	hello   := u32 proto | u32 sender   (sender 0xFFFFFFFF = coordinator)
//	credit  := u32 gen | u16 op | u16 inst | u32 credits
//	control := u32 req | u8 kind | JSON
//	reply   := u32 req | u8 ok  | JSON
//
// A DATA frame with no records is one upstream instance's end-of-stream
// marker for (op, inst); it takes and returns no credit. gen tags every
// data-plane frame with the deployment generation, so frames straggling
// across a rescale are discarded instead of corrupting the next
// deployment's credit accounting. All integers are little-endian.
// Decoding is pure slice arithmetic with explicit bounds checks — a
// truncated, oversized, or corrupt-length frame errors cleanly and never
// over-reads (pinned by FuzzFrameDecode).

// frameProto is the transport protocol version carried in hello frames.
// Version 2 widened keyLen to u32 and replaced the DONE frame with the
// empty DATA frame; version 3 deploys key-group bounds instead of routing
// tables, so a worker of another version routes keys differently.
const frameProto = 3

// helloCoordinator is the hello sender value identifying the
// coordinator's control connection (data links carry the dialing
// worker's index).
const helloCoordinator = 0xFFFFFFFF

// maxFrameLen bounds a frame's declared length: anything larger is a
// corrupt length prefix (the send path never produces frames beyond
// BatchSize records, far under this), and rejecting it early keeps a
// flipped length bit from allocating gigabytes or desynchronizing the
// stream.
const maxFrameLen = 16 << 20

// Frame types. 4 was protocol 1's DONE; it is retired, not reused.
const (
	frameHello   = byte(1)
	frameData    = byte(2)
	frameCredit  = byte(3)
	frameControl = byte(5)
	frameReply   = byte(6)
)

var (
	errFrameLength = errors.New("streamrt: frame length exceeds maximum")
	errFrameEmpty  = errors.New("streamrt: zero-length frame")
	errFrameShort  = errors.New("streamrt: truncated frame payload")
)

// readFrame reads one frame from r into buf (grown as needed),
// returning the type, the payload (aliasing buf), and the possibly
// regrown buffer. io.EOF is returned only at a clean frame boundary;
// a connection dying mid-frame is io.ErrUnexpectedEOF.
func readFrame(r io.Reader, buf []byte) (typ byte, payload, newBuf []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, buf, io.EOF
		}
		return 0, nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, buf, errFrameEmpty
	}
	if n > maxFrameLen {
		return 0, nil, buf, fmt.Errorf("%w: %d > %d", errFrameLength, n, maxFrameLen)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, buf, err
	}
	return buf[0], buf[1:], buf, nil
}

// beginFrame reserves a frame header in dst and returns the payload
// start offset for endFrame.
func beginFrame(dst []byte, typ byte) ([]byte, int) {
	dst = append(dst, 0, 0, 0, 0, typ)
	return dst, len(dst)
}

// endFrame backfills the length prefix of the frame whose payload
// started at off (as returned by beginFrame).
func endFrame(dst []byte, off int) []byte {
	binary.LittleEndian.PutUint32(dst[off-5:], uint32(len(dst)-off+1))
	return dst
}

// appendU16/appendU32/appendU64 are the little-endian append helpers of
// the frame writer.
func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v), byte(v>>8))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// dataHeader is the fixed prefix of a DATA frame payload.
type dataHeader struct {
	gen   uint32
	op    uint16
	inst  uint16
	count uint32
}

const dataHeaderLen = 4 + 2 + 2 + 4

// parseDataHeader splits a DATA payload into its header and the record
// bytes.
func parseDataHeader(p []byte) (dataHeader, []byte, error) {
	if len(p) < dataHeaderLen {
		return dataHeader{}, nil, fmt.Errorf("%w: data header %d < %d bytes", errFrameShort, len(p), dataHeaderLen)
	}
	h := dataHeader{
		gen:   binary.LittleEndian.Uint32(p),
		op:    binary.LittleEndian.Uint16(p[4:]),
		inst:  binary.LittleEndian.Uint16(p[6:]),
		count: binary.LittleEndian.Uint32(p[8:]),
	}
	return h, p[dataHeaderLen:], nil
}

// nextRecord splits one record off the front of a DATA frame's record
// bytes. Returned slices alias p.
func nextRecord(p []byte) (key []byte, srcNano int64, val, rest []byte, err error) {
	if len(p) < 4 {
		return nil, 0, nil, nil, fmt.Errorf("%w: record key length", errFrameShort)
	}
	klen := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if len(p) < klen+8+4 {
		return nil, 0, nil, nil, fmt.Errorf("%w: record body", errFrameShort)
	}
	key = p[:klen]
	p = p[klen:]
	srcNano = int64(binary.LittleEndian.Uint64(p))
	vlen := int(binary.LittleEndian.Uint32(p[8:]))
	p = p[12:]
	if len(p) < vlen {
		return nil, 0, nil, nil, fmt.Errorf("%w: record value %d > %d remaining", errFrameShort, vlen, len(p))
	}
	return key, srcNano, p[:vlen], p[vlen:], nil
}

// creditMsg is a CREDIT frame payload.
type creditMsg struct {
	gen     uint32
	op      uint16
	inst    uint16
	credits uint32
}

const creditLen = 4 + 2 + 2 + 4

func appendCredit(dst []byte, m creditMsg) []byte {
	var off int
	dst, off = beginFrame(dst, frameCredit)
	dst = appendU32(dst, m.gen)
	dst = appendU16(dst, m.op)
	dst = appendU16(dst, m.inst)
	dst = appendU32(dst, m.credits)
	return endFrame(dst, off)
}

func parseCredit(p []byte) (creditMsg, error) {
	if len(p) != creditLen {
		return creditMsg{}, fmt.Errorf("%w: credit payload %d != %d bytes", errFrameShort, len(p), creditLen)
	}
	return creditMsg{
		gen:     binary.LittleEndian.Uint32(p),
		op:      binary.LittleEndian.Uint16(p[4:]),
		inst:    binary.LittleEndian.Uint16(p[6:]),
		credits: binary.LittleEndian.Uint32(p[8:]),
	}, nil
}

// helloMsg is a HELLO frame payload, the first frame on every
// connection.
type helloMsg struct {
	proto  uint32
	sender uint32
}

const helloLen = 4 + 4

func appendHello(dst []byte, m helloMsg) []byte {
	var off int
	dst, off = beginFrame(dst, frameHello)
	dst = appendU32(dst, m.proto)
	dst = appendU32(dst, m.sender)
	return endFrame(dst, off)
}

func parseHello(p []byte) (helloMsg, error) {
	if len(p) != helloLen {
		return helloMsg{}, fmt.Errorf("%w: hello payload %d != %d bytes", errFrameShort, len(p), helloLen)
	}
	return helloMsg{proto: binary.LittleEndian.Uint32(p), sender: binary.LittleEndian.Uint32(p[4:])}, nil
}

// ctrlMsg is a CONTROL or REPLY frame payload: a correlation id, a kind
// (or ok flag for replies), and a JSON body.
type ctrlMsg struct {
	req  uint32
	kind byte
	body []byte
}

func appendCtrl(dst []byte, typ byte, m ctrlMsg) []byte {
	var off int
	dst, off = beginFrame(dst, typ)
	dst = appendU32(dst, m.req)
	dst = append(dst, m.kind)
	dst = append(dst, m.body...)
	return endFrame(dst, off)
}

func parseCtrl(p []byte) (ctrlMsg, error) {
	if len(p) < 5 {
		return ctrlMsg{}, fmt.Errorf("%w: control payload %d < 5 bytes", errFrameShort, len(p))
	}
	return ctrlMsg{req: binary.LittleEndian.Uint32(p), kind: p[4], body: p[5:]}, nil
}
