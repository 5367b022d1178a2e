package streamrt

import (
	"encoding/binary"
	"fmt"
	"time"

	"ds2/internal/dataflow"
)

// Emit pushes one record to every downstream operator. Keyed
// downstream operators receive it at the instance the deployment's
// router assigns the key; others at the next round-robin instance.
// Records travel the exchange in batches: an emitted record is
// delivered once its batch fills (Config.BatchSize), once
// Config.FlushInterval passes, or when the emitting instance idles,
// sleeps for pacing, or exits — whichever comes first.
type Emit func(key string, value any)

// Codec encodes record values for the exchange into an operator. When
// an operator declares one, upstream instances encode (measured as
// serialization time) and the operator's instances decode (measured as
// deserialization time) — the exchange genuinely moves bytes.
// Operators without a Codec receive values directly and report all
// useful time under processing, the fallback internal/metrics
// documents for integrations that cannot split the three activities.
type Codec interface {
	Encode(v any) []byte
	Decode(b []byte) any
}

// AppendEncoder is an optional Codec extension for the batched
// exchange: AppendEncode appends v's encoding to dst and returns the
// extended slice, so senders encode straight into the outgoing batch
// buffer with no per-record allocation (record framing is the batch
// header's job — the encoding itself needs no length prefix). A codec
// handing out pooled values may recycle v here: after AppendEncode (or
// Encode) returns, the runtime never touches the value again.
type AppendEncoder interface {
	AppendEncode(dst []byte, v any) []byte
}

// StateCodec encodes an operator's per-key state for the distributed
// runtime: rescale snapshots cross process boundaries as bytes, so
// every keyed operator of a distributed job must declare how its state
// values serialize. For windowed operators the codec covers the *pane
// aggregate* (the value Process returns); the surrounding WindowState
// bookkeeping is encoded by the runtime itself. Single-process jobs
// never touch it — their snapshots stay in memory.
type StateCodec interface {
	EncodeState(v any) []byte
	DecodeState(b []byte) any
}

// StringCodec passes string values through []byte — the cheapest real
// codec, enough to make the deserialization/serialization split
// observable.
type StringCodec struct{}

// Encode implements Codec.
func (StringCodec) Encode(v any) []byte { return []byte(v.(string)) }

// Decode implements Codec.
func (StringCodec) Decode(b []byte) any { return string(b) }

// AppendEncode implements AppendEncoder.
func (StringCodec) AppendEncode(dst []byte, v any) []byte { return append(dst, v.(string)...) }

// IntStateCodec serializes int keyed state (per-key counters, the most
// common sink state) as a varint — enough to make any counting job
// savepointable without writing a codec.
type IntStateCodec struct{}

// EncodeState implements StateCodec.
func (c IntStateCodec) EncodeState(v any) []byte { return c.appendState(nil, v) }

func (IntStateCodec) appendState(dst []byte, v any) []byte {
	return binary.AppendVarint(dst, int64(v.(int)))
}

// DecodeState implements StateCodec.
func (IntStateCodec) DecodeState(b []byte) any {
	x, n := binary.Varint(b)
	if n <= 0 {
		panic(fmt.Sprintf("streamrt: corrupt int state (%d bytes)", len(b)))
	}
	return int(x)
}

// SourceSpec is one executable source: a deterministic record
// generator paced at a target rate.
type SourceSpec struct {
	// Rate is the target emission rate in records/s at job time t
	// seconds — the λsrc the policy reads. The source is a no-backlog
	// spout (§5.2): records suppressed while blocked on a full
	// downstream queue are never produced later, so the achieved rate
	// visibly drops below target under backpressure. Rate is called
	// concurrently by every source instance and by window collection,
	// so it must be safe for concurrent use, and it must not call
	// back into the Job API (source goroutines evaluate it while a
	// rescale holds the job lock waiting for them to drain — a
	// re-entrant call would deadlock the redeployment). Rates below
	// one record per hour per instance are treated as zero.
	Rate func(t float64) float64
	// Next produces the seq-th record. Sequence numbers are allocated
	// from a per-source counter that survives rescales, and every
	// allocated sequence is emitted exactly once, so a deterministic
	// Next makes end-to-end results replayable.
	Next func(seq int64) (key string, value any)
	// Limit stops the source after this many records (0 = unbounded);
	// an exhausted source drains the pipeline and every instance exits.
	Limit int64
	// Cost is per-record blocking work (a sleep), modeling a source
	// whose capacity is bounded by I/O rather than CPU.
	Cost time.Duration
}

// OperatorSpec is one executable non-source operator.
type OperatorSpec struct {
	// Keyed selects key partitioning of the operator's input (see
	// router.go) and enables per-key state: Process receives the
	// key's current state (nil on first sight) and returns the new
	// state, which Rescale snapshots and repartitions.
	Keyed bool
	// Process handles one record, emitting zero or more downstream
	// records. For stateless operators state is always nil and the
	// return value is ignored. For windowed operators (Window set) the
	// state argument is the current pane's aggregate — nil when the
	// record opens the pane — and the return value becomes the pane's
	// new aggregate; per-key state bookkeeping is the runtime's.
	Process func(state any, key string, value any, emit Emit) any
	// Cost is per-record blocking work (a sleep), making the
	// instance's capacity 1/Cost records per second of useful time.
	Cost time.Duration
	// Codec, when set, makes the exchange into this operator pass
	// encoded bytes (see Codec).
	Codec Codec
	// Window, when set, makes this keyed operator windowed: records
	// accumulate into per-key processing-time panes and due windows
	// fire on the worker loop (see WindowSpec). Window state lives
	// inside the ordinary keyed state, so it is snapshotted and
	// repartitioned across rescales exactly like keyed counters.
	Window *WindowSpec
	// State serializes this operator's per-key state for distributed
	// deployments (see StateCodec). Required for keyed operators of a
	// distributed job; ignored — never called — in-process.
	State StateCodec
}

// WindowSpec configures a windowed keyed operator. Windows are
// processing-time: a record joins the pane covering the job time of
// its arrival at the operator (pane length = Slide), and the window
// ending at a pane fires once that pane's close instant has passed —
// checked after every record and on an idle tick, so firing rides the
// existing worker loop. Tumbling windows are the Slide == Size (or
// Slide == 0) case; sliding windows fire every Slide over the last
// Size of panes, combined with Combine.
type WindowSpec struct {
	// Size is the window length. It must be a positive multiple of
	// Slide.
	Size time.Duration
	// Slide is the firing period (and pane length). Zero selects
	// tumbling (Slide = Size).
	Slide time.Duration
	// Fire emits one closed window's result downstream. The aggregate
	// is the pane aggregate (tumbling) or the Combine-fold of the
	// window's panes in pane order (sliding). Empty windows do not
	// fire.
	Fire func(key string, aggregate any, emit Emit)
	// Combine folds two pane aggregates (earlier, later) into one;
	// required when Slide < Size, unused for tumbling windows.
	Combine func(earlier, later any) any
}

// slide returns the normalized firing period.
func (w *WindowSpec) slide() time.Duration {
	if w.Slide <= 0 {
		return w.Size
	}
	return w.Slide
}

// panes returns how many panes one window spans.
func (w *WindowSpec) panes() int64 { return int64(w.Size / w.slide()) }

// Pipeline is a frozen executable dataflow: the logical graph plus the
// specs of every vertex.
type Pipeline struct {
	graph   *dataflow.Graph
	sources map[string]*SourceSpec
	ops     map[string]*OperatorSpec
}

// Graph returns the logical dataflow graph.
func (p *Pipeline) Graph() *dataflow.Graph { return p.graph }

// Builder accumulates sources, operators and edges before validation —
// the NewGraph/AddNode/AddEdge/Compile builder shape.
type Builder struct {
	gb      *dataflow.Builder
	sources map[string]*SourceSpec
	ops     map[string]*OperatorSpec
	err     error
}

// NewPipeline returns an empty pipeline builder.
func NewPipeline() *Builder {
	return &Builder{
		gb:      dataflow.NewBuilder(),
		sources: make(map[string]*SourceSpec),
		ops:     make(map[string]*OperatorSpec),
	}
}

func (b *Builder) fail(err error) *Builder {
	if b.err == nil {
		b.err = err
	}
	return b
}

// syncGraphErr pulls a structural error out of the wrapped graph
// builder the moment it happens. Without this, a duplicate-name or
// unknown-edge error (which names the offending node/edge) would stay
// buried inside gb until Build, and a later spec error recorded via
// fail would mask it — the reported failure would name the wrong node.
func (b *Builder) syncGraphErr() *Builder { return b.fail(b.gb.Err()) }

// AddSource registers an executable source.
func (b *Builder) AddSource(name string, spec SourceSpec) *Builder {
	if b.err != nil {
		return b
	}
	if spec.Rate == nil {
		return b.fail(fmt.Errorf("streamrt: source %q has no Rate", name))
	}
	if spec.Next == nil {
		return b.fail(fmt.Errorf("streamrt: source %q has no Next", name))
	}
	if spec.Cost < 0 || spec.Limit < 0 {
		return b.fail(fmt.Errorf("streamrt: source %q: negative cost or limit", name))
	}
	b.gb.AddOperator(name)
	b.sources[name] = &spec
	return b.syncGraphErr()
}

// AddOperator registers an executable operator.
func (b *Builder) AddOperator(name string, spec OperatorSpec) *Builder {
	if b.err != nil {
		return b
	}
	if spec.Process == nil {
		return b.fail(fmt.Errorf("streamrt: operator %q has no Process", name))
	}
	if spec.Cost < 0 {
		return b.fail(fmt.Errorf("streamrt: operator %q: negative cost", name))
	}
	if w := spec.Window; w != nil {
		if !spec.Keyed {
			return b.fail(fmt.Errorf("streamrt: operator %q: windowed operators must be keyed", name))
		}
		if w.Size <= 0 {
			return b.fail(fmt.Errorf("streamrt: operator %q: window size %v <= 0", name, w.Size))
		}
		if w.Slide < 0 || w.Slide > w.Size {
			return b.fail(fmt.Errorf("streamrt: operator %q: window slide %v outside (0, size=%v]", name, w.Slide, w.Size))
		}
		if w.Size%w.slide() != 0 {
			return b.fail(fmt.Errorf("streamrt: operator %q: window size %v is not a multiple of slide %v", name, w.Size, w.slide()))
		}
		if w.Fire == nil {
			return b.fail(fmt.Errorf("streamrt: operator %q: windowed operator has no Fire", name))
		}
		if w.slide() < w.Size && w.Combine == nil {
			return b.fail(fmt.Errorf("streamrt: operator %q: sliding window (slide %v < size %v) has no Combine", name, w.slide(), w.Size))
		}
	}
	b.gb.AddOperator(name)
	b.ops[name] = &spec
	return b.syncGraphErr()
}

// AddEdge registers a data dependency from -> to.
func (b *Builder) AddEdge(from, to string) *Builder {
	if b.err != nil {
		return b
	}
	b.gb.AddEdge(from, to)
	return b.syncGraphErr()
}

// Build validates the accumulated structure — the graph invariants via
// dataflow.Build plus spec/role consistency — and returns the frozen
// pipeline.
func (b *Builder) Build() (*Pipeline, error) {
	if b.err != nil {
		return nil, b.err
	}
	g, err := b.gb.Build()
	if err != nil {
		return nil, err
	}
	for i := 0; i < g.NumOperators(); i++ {
		op := g.Operator(i)
		_, isSrc := b.sources[op.Name]
		if op.Role == dataflow.RoleSource {
			if !isSrc {
				return nil, fmt.Errorf("streamrt: %q has no upstream edges but was added as an operator", op.Name)
			}
			continue
		}
		if isSrc {
			return nil, fmt.Errorf("streamrt: source %q has upstream edges", op.Name)
		}
		if _, ok := b.ops[op.Name]; !ok {
			return nil, fmt.Errorf("streamrt: internal error: operator %q has no spec", op.Name)
		}
	}
	return &Pipeline{graph: g, sources: b.sources, ops: b.ops}, nil
}
