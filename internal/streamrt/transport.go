package streamrt

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ds2/internal/obs"
)

// internLimit bounds the per-connection key intern table. Interning
// makes the receive path's key strings amortized-zero-alloc for hot key
// universes (Nexmark's auctions, wordcount's word set); an unbounded
// key space (q3's person ids) resets the table instead of growing it
// forever.
const internLimit = 1 << 16

// remoteWindow is the per-(sending worker, destination instance)
// credit window, counted in batches — the cross-process analogue of
// ChannelCapacity. A sender may have this many batches in flight to one
// remote instance before it blocks, so backpressure propagates across
// processes exactly like a full bounded channel does in-process.
func remoteWindow(cfg *Config) int { return cfg.ChannelCapacity }

// linkStats is one connection's traffic counters. They are plain obs
// counters so a worker with a Registry exports them directly; the
// coordinator additionally mirrors every worker's links at collect
// time.
type linkStats struct {
	label    string // data-flow direction, "w0->w1"
	txBytes  obs.Counter
	txFrames obs.Counter
	rxBytes  obs.Counter
	rxFrames obs.Counter
	stalls   obs.Counter
}

func (st *linkStats) snapshot() LinkStats {
	return LinkStats{
		Link:     st.label,
		TxBytes:  st.txBytes.Value(),
		TxFrames: st.txFrames.Value(),
		RxBytes:  st.rxBytes.Value(),
		RxFrames: st.rxFrames.Value(),
		Stalls:   st.stalls.Value(),
	}
}

// link is one persistent framed connection. Writers append frames to a
// shared buffer under a mutex and signal the write loop, which swaps
// the buffer out and writes it in one syscall — so a saturated link
// coalesces many batches per write, and an idle one still flushes
// within a scheduling quantum.
type link struct {
	conn  net.Conn
	peer  uint32
	stats *linkStats

	mu     sync.Mutex
	wbuf   []byte
	wake   chan struct{}
	closed chan struct{}
	once   sync.Once
	err    atomic.Value // first failure, for diagnostics
}

func newLink(conn net.Conn, peer uint32, stats *linkStats) *link {
	return &link{
		conn:   conn,
		peer:   peer,
		stats:  stats,
		wake:   make(chan struct{}, 1),
		closed: make(chan struct{}),
	}
}

// close tears the link down; idempotent. The first recorded error (if
// any) is kept for diagnostics.
func (l *link) close(err error) {
	l.once.Do(func() {
		if err != nil {
			l.err.Store(err)
		}
		close(l.closed)
		l.conn.Close()
	})
}

func (l *link) failure() error {
	if e, ok := l.err.Load().(error); ok {
		return e
	}
	return nil
}

// signal wakes the write loop (non-blocking; one pending wakeup is
// enough, the loop drains the whole buffer).
func (l *link) signal() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// writeLoop drains the shared write buffer into the socket. The swap
// under the mutex is O(1); the write itself happens outside it, so
// senders never block on the kernel.
func (l *link) writeLoop() {
	var out []byte
	flush := func() bool {
		l.mu.Lock()
		out, l.wbuf = l.wbuf, out[:0]
		l.mu.Unlock()
		if len(out) == 0 {
			return true
		}
		n, err := l.conn.Write(out)
		l.stats.txBytes.Add(uint64(n))
		if err != nil {
			l.close(fmt.Errorf("streamrt: link write: %w", err))
			return false
		}
		return true
	}
	for {
		select {
		case <-l.wake:
			if !flush() {
				return
			}
		case <-l.closed:
			flush() // best-effort final drain
			return
		}
	}
}

// send appends one frame to the write buffer under the lock, bumps the
// frame counter and signals the writer.
func (l *link) send(frame func(dst []byte) []byte) {
	l.mu.Lock()
	l.wbuf = frame(l.wbuf)
	l.mu.Unlock()
	l.stats.txFrames.Inc()
	l.signal()
}

func (l *link) sendCredit(m creditMsg) {
	l.send(func(dst []byte) []byte { return appendCredit(dst, m) })
}

func (l *link) sendHello(m helloMsg) {
	l.send(func(dst []byte) []byte { return appendHello(dst, m) })
}

func (l *link) sendCtrl(typ byte, m ctrlMsg) {
	l.send(func(dst []byte) []byte { return appendCtrl(dst, typ, m) })
}

// sendData encodes one outgoing batch straight into the link's write
// buffer — the encode-at-flush path of the in-process exchange, with
// the socket buffer as the destination. Values still held as `any` are
// appended through the receiving operator's encoder; already-encoded
// records are copied from the batch buffer. endOfStream, which holds no
// records, goes out as the frame with none.
func (l *link) sendData(gen uint32, opID, inst uint16, b *batch, enc AppendEncoder) {
	l.mu.Lock()
	dst, off := beginFrame(l.wbuf, frameData)
	dst = appendU32(dst, gen)
	dst = appendU16(dst, opID)
	dst = appendU16(dst, inst)
	dst = appendU32(dst, uint32(len(b.msgs)))
	for k := range b.msgs {
		m := &b.msgs[k]
		dst = appendU32(dst, uint32(len(m.key)))
		dst = append(dst, m.key...)
		var nano int64
		if !m.src.IsZero() {
			nano = m.src.UnixNano()
		}
		dst = appendU64(dst, uint64(nano))
		vOff := len(dst)
		dst = appendU32(dst, 0)
		if m.val != nil {
			dst = enc.AppendEncode(dst, m.val)
		} else {
			dst = append(dst, b.buf[m.encOff:m.encOff+m.encLen]...)
		}
		putU32(dst[vOff:], uint32(len(dst)-vOff-4))
	}
	l.wbuf = endFrame(dst, off)
	l.mu.Unlock()
	l.stats.txFrames.Inc()
	l.signal()
}

func putU32(dst []byte, v uint32) {
	dst[0], dst[1], dst[2], dst[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// remoteDest is a sender worker's credit gate toward one remote
// instance: a pre-filled token pool sized remoteWindow, shared by every
// local sender instance targeting that (operator, instance). A CREDIT
// frame from the hosting worker returns one token per consumed batch.
type remoteDest struct {
	link   *link
	opID   uint16
	inst   uint16
	tokens chan struct{}
}

// acquire takes one in-flight token, blocking until the receiver
// returns credit. It reports whether the wait stalled (for the caller's
// waiting-output accounting) and false ok when the link died.
func (rd *remoteDest) acquire() (ok bool) {
	select {
	case <-rd.tokens:
		return true
	default:
	}
	rd.link.stats.stalls.Inc()
	select {
	case <-rd.tokens:
		return true
	case <-rd.link.closed:
		return false
	}
}

// recvOrigin records where a received batch came from, so recycling it
// returns one credit to the sending worker.
type recvOrigin struct {
	link *link
	gen  uint32
	op   uint16
	inst uint16
}

// recvTable is one deployment generation's receive-side routing: which
// channel each (operator, instance) hosted here feeds, and which token
// pools take returned credits. The transport swaps it atomically at
// deploy, so read loops never take a lock.
type recvTable struct {
	gen     uint32
	host    *host
	chans   [][]chan *batch   // [opID][globalInstance]; nil when not hosted here
	credits [][]chan struct{} // [opID][globalInstance]; sender-side token pools
}

// transport owns a worker's listener and its links: dialed data links
// to peers (data out, credits in), accepted data links from peers (data
// in, credits out), and accepted control connections from the
// coordinator.
type transport struct {
	worker uint32
	lis    net.Listener
	reg    *obs.Registry
	// handleControl serves one control request (called per frame on a
	// dispatch goroutine); nil transports reject control connections.
	handleControl func(l *link, m ctrlMsg)

	recv atomic.Pointer[recvTable]

	mu     sync.Mutex
	dialed map[uint32]*link
	all    []*link
	stats  []*linkStats
	closed bool
	wg     sync.WaitGroup
}

func newTransport(worker uint32, lis net.Listener, reg *obs.Registry) *transport {
	return &transport{worker: worker, lis: lis, reg: reg, dialed: make(map[uint32]*link)}
}

// Addr returns the transport's listen address.
func (tr *transport) Addr() string {
	if tr.lis == nil {
		return ""
	}
	return tr.lis.Addr().String()
}

func (tr *transport) newStats(label string) *linkStats {
	st := &linkStats{label: label}
	if tr.reg != nil {
		// Export through the registry instead of the standalone
		// counters, so a worker process's /metrics carries per-link
		// traffic directly.
		registerLinkStats(tr.reg, label, st.snapshot)
	}
	tr.mu.Lock()
	tr.stats = append(tr.stats, st)
	tr.mu.Unlock()
	return st
}

// registerLinkStats exposes one link's counters, read through get at
// every scrape, as the per-link metric families: a worker's own links
// live, the coordinator's mirror of them as last collected.
func registerLinkStats(reg *obs.Registry, label string, get func() LinkStats) {
	const bytesHelp = "Bytes moved over a worker-to-worker exchange link, by direction."
	const framesHelp = "Frames moved over a worker-to-worker exchange link, by direction."
	link := obs.L("link", label)
	reg.CounterFunc("streamrt_link_bytes_total", bytesHelp,
		func() float64 { return float64(get().TxBytes) }, link, obs.L("dir", "tx"))
	reg.CounterFunc("streamrt_link_bytes_total", bytesHelp,
		func() float64 { return float64(get().RxBytes) }, link, obs.L("dir", "rx"))
	reg.CounterFunc("streamrt_link_frames_total", framesHelp,
		func() float64 { return float64(get().TxFrames) }, link, obs.L("dir", "tx"))
	reg.CounterFunc("streamrt_link_frames_total", framesHelp,
		func() float64 { return float64(get().RxFrames) }, link, obs.L("dir", "rx"))
	reg.CounterFunc("streamrt_link_stalls_total",
		"Remote batch sends that blocked waiting for flow-control credit.",
		func() float64 { return float64(get().Stalls) }, link)
}

func (tr *transport) track(l *link) bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.closed {
		return false
	}
	tr.all = append(tr.all, l)
	return true
}

// serve accepts connections until the listener closes.
func (tr *transport) serve() {
	tr.wg.Add(1)
	go func() {
		defer tr.wg.Done()
		for {
			conn, err := tr.lis.Accept()
			if err != nil {
				return
			}
			tr.wg.Add(1)
			go func() {
				defer tr.wg.Done()
				tr.handleConn(conn)
			}()
		}
	}()
}

// handleConn reads the HELLO and runs the connection's read loop.
func (tr *transport) handleConn(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReaderSize(conn, 1<<16)
	typ, payload, buf, err := readFrame(br, nil)
	if err != nil || typ != frameHello {
		conn.Close()
		return
	}
	hello, err := parseHello(payload)
	if err != nil || hello.proto != frameProto {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	if hello.sender == helloCoordinator {
		l := newLink(conn, hello.sender, tr.newStats(fmt.Sprintf("ctl->w%d", tr.worker)))
		if tr.handleControl == nil || !tr.track(l) {
			l.close(nil)
			return
		}
		go l.writeLoop()
		tr.ctrlReadLoop(l, br, buf)
		return
	}
	l := newLink(conn, hello.sender, tr.newStats(fmt.Sprintf("w%d->w%d", hello.sender, tr.worker)))
	if !tr.track(l) {
		l.close(nil)
		return
	}
	go l.writeLoop()
	tr.dataReadLoop(l, br, buf)
}

// dialPeer returns the persistent outbound data link to peer, dialing
// it on first use.
func (tr *transport) dialPeer(peer uint32, addr string) (*link, error) {
	tr.mu.Lock()
	if l, ok := tr.dialed[peer]; ok {
		tr.mu.Unlock()
		return l, nil
	}
	tr.mu.Unlock()
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("streamrt: dialing worker %d at %s: %w", peer, addr, err)
	}
	l := newLink(conn, peer, tr.newStats(fmt.Sprintf("w%d->w%d", tr.worker, peer)))
	tr.mu.Lock()
	if exist, ok := tr.dialed[peer]; ok {
		tr.mu.Unlock()
		conn.Close()
		return exist, nil
	}
	if tr.closed {
		tr.mu.Unlock()
		conn.Close()
		return nil, errors.New("streamrt: transport closed")
	}
	tr.dialed[peer] = l
	tr.all = append(tr.all, l)
	tr.mu.Unlock()
	go l.writeLoop()
	l.sendHello(helloMsg{proto: frameProto, sender: tr.worker})
	tr.wg.Add(1)
	go func() {
		defer tr.wg.Done()
		tr.creditReadLoop(l)
	}()
	return l, nil
}

// dataReadLoop consumes DATA frames from an accepted peer link,
// decoding them into the current deployment's input channels.
func (tr *transport) dataReadLoop(l *link, br *bufio.Reader, buf []byte) {
	intern := make(map[string]string)
	for {
		typ, payload, nbuf, err := readFrame(br, buf)
		buf = nbuf
		if err != nil {
			l.close(err)
			return
		}
		l.stats.rxBytes.Add(uint64(len(payload) + 5))
		l.stats.rxFrames.Inc()
		if typ != frameData {
			l.close(fmt.Errorf("streamrt: unexpected frame type %d on data link", typ))
			return
		}
		if err := tr.handleData(l, payload, intern); err != nil {
			l.close(err)
			return
		}
	}
}

// handleData delivers one DATA frame to the destination instance's input
// channel: its records as a pooled batch, or, for a frame with none, the
// end-of-stream marker. The send waits for a channel slot as a local
// sender's does: credit sizing keeps remote batches in flight from
// filling the channel, but not the local senders that share it.
func (tr *transport) handleData(l *link, payload []byte, intern map[string]string) error {
	h, recs, err := parseDataHeader(payload)
	if err != nil {
		return err
	}
	rt := tr.recv.Load()
	if rt == nil || h.gen < rt.gen {
		return nil // straggler from a drained generation: drop
	}
	if h.gen > rt.gen {
		return fmt.Errorf("streamrt: data frame for operator %d instance %d: future generation %d (at %d)", h.op, h.inst, h.gen, rt.gen)
	}
	if int(h.op) >= len(rt.chans) || rt.chans[h.op] == nil {
		return fmt.Errorf("streamrt: data frame for operator %d instance %d: operator not hosted here", h.op, h.inst)
	}
	if int(h.inst) >= len(rt.chans[h.op]) || rt.chans[h.op][h.inst] == nil {
		return fmt.Errorf("streamrt: data frame for operator %d instance %d: instance not hosted here", h.op, h.inst)
	}
	if h.count == 0 && len(recs) == 0 {
		// Carries no origin: a marker took no credit and returns none.
		rt.chans[h.op][h.inst] <- endOfStream
		return nil
	}
	b := rt.host.getBatch()
	for i := uint32(0); i < h.count; i++ {
		key, srcNano, val, rest, err := nextRecord(recs)
		if err != nil {
			rt.host.putBatch(b)
			return err
		}
		recs = rest
		ks, ok := intern[string(key)] // no-alloc map lookup on []byte key
		if !ok {
			if len(intern) >= internLimit {
				clear(intern)
			}
			ks = string(key)
			intern[ks] = ks
		}
		off := int32(len(b.buf))
		b.buf = append(b.buf, val...)
		var src time.Time
		if srcNano != 0 {
			src = time.Unix(0, srcNano)
		}
		b.msgs = append(b.msgs, message{key: ks, encOff: off, encLen: int32(len(val)), src: src})
	}
	if len(recs) != 0 {
		rt.host.putBatch(b)
		return fmt.Errorf("streamrt: %d trailing bytes after %d records", len(recs), h.count)
	}
	b.from = recvOrigin{link: l, gen: h.gen, op: h.op, inst: h.inst}
	rt.chans[h.op][h.inst] <- b
	return nil
}

// creditReadLoop consumes CREDIT frames flowing back on an outbound
// data link, refilling the sender-side token pools.
func (tr *transport) creditReadLoop(l *link) {
	br := bufio.NewReaderSize(l.conn, 1<<12)
	var buf []byte
	for {
		typ, payload, nbuf, err := readFrame(br, buf)
		buf = nbuf
		if err != nil {
			l.close(err)
			return
		}
		l.stats.rxBytes.Add(uint64(len(payload) + 5))
		l.stats.rxFrames.Inc()
		if typ != frameCredit {
			l.close(fmt.Errorf("streamrt: unexpected frame type %d on credit path", typ))
			return
		}
		m, err := parseCredit(payload)
		if err != nil {
			l.close(err)
			return
		}
		rt := tr.recv.Load()
		if rt == nil || m.gen != rt.gen {
			continue // stale credit: the generation's pools are gone
		}
		if int(m.op) >= len(rt.credits) || rt.credits[m.op] == nil ||
			int(m.inst) >= len(rt.credits[m.op]) || rt.credits[m.op][m.inst] == nil {
			continue
		}
		pool := rt.credits[m.op][m.inst]
		for i := uint32(0); i < m.credits; i++ {
			select {
			case pool <- struct{}{}:
			default: // over-return would be a protocol bug; never block the read loop
			}
		}
	}
}

// ctrlReadLoop consumes CONTROL frames from the coordinator,
// dispatching each to the handler on its own goroutine (handlers block
// on drains) and serializing replies through the link writer.
func (tr *transport) ctrlReadLoop(l *link, br *bufio.Reader, buf []byte) {
	for {
		typ, payload, nbuf, err := readFrame(br, buf)
		buf = nbuf
		if err != nil {
			l.close(err)
			return
		}
		l.stats.rxBytes.Add(uint64(len(payload) + 5))
		l.stats.rxFrames.Inc()
		if typ != frameControl {
			l.close(fmt.Errorf("streamrt: unexpected frame type %d on control link", typ))
			return
		}
		m, err := parseCtrl(payload)
		if err != nil {
			l.close(err)
			return
		}
		// The payload aliases the read buffer; the handler runs
		// concurrently with further reads.
		m.body = append([]byte(nil), m.body...)
		tr.wg.Add(1)
		go func() {
			defer tr.wg.Done()
			tr.handleControl(l, m)
		}()
	}
}

// close shuts the transport down: listener, every link, and the accept
// loop.
func (tr *transport) close() {
	tr.mu.Lock()
	if tr.closed {
		tr.mu.Unlock()
		return
	}
	tr.closed = true
	links := append([]*link(nil), tr.all...)
	tr.mu.Unlock()
	if tr.lis != nil {
		tr.lis.Close()
	}
	for _, l := range links {
		l.close(nil)
	}
}

// linkSnapshots returns the cumulative counters of every link, for the
// coordinator's collect-time metric mirroring.
func (tr *transport) linkSnapshots() []LinkStats {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]LinkStats, 0, len(tr.stats))
	for _, st := range tr.stats {
		out = append(out, st.snapshot())
	}
	return out
}

// LinkStats is one exchange link's cumulative traffic counters, as
// shipped from workers to the coordinator at collect time.
type LinkStats struct {
	Link     string `json:"link"`
	TxBytes  uint64 `json:"tx_bytes"`
	TxFrames uint64 `json:"tx_frames"`
	RxBytes  uint64 `json:"rx_bytes"`
	RxFrames uint64 `json:"rx_frames"`
	Stalls   uint64 `json:"stalls"`
}
