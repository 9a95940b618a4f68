// Package trace is Daisy's dependency-free per-query span tracer. A Trace is
// a bounded arena of spans — name, parent, start, duration, typed attributes
// — that attributes one query's latency to the pipeline stages it crossed:
// parse, plan, engine operators, violation detection, repair, and the
// writer's publish/WAL path.
//
// The design mirrors how cancellation is threaded through the query path:
// everything is nil-safe, so an untraced query pays zero. A nil *Trace hands
// out zero Spans, and every method on a zero Span is a no-op that performs no
// allocation and reads no clock. Hot call sites guard attribute construction
// behind Span.Active so the untraced path does not even build the variadic
// attribute slice:
//
//	sp := parent.Start("filter")
//	... work ...
//	if sp.Active() {
//		sp.End(trace.Int("rows_in", in), trace.Int("rows_out", out))
//	}
//
// A Trace is safe for concurrent use: the single-writer apply goroutine
// attaches WAL append/fsync spans to a query's publish span while the query
// goroutine owns the rest of the tree. Span growth is bounded by a per-trace
// cap; spans started past the cap are counted in Dropped and their handles
// no-op like untraced ones.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// MaxSpans bounds one trace's span arena. A query's span count is
// operator-granular (never per-row), so real traces sit far below this; the
// cap exists so a pathological plan cannot grow a trace without bound.
const MaxSpans = 512

// attrKind tags the value stored in an Attr.
type attrKind uint8

const (
	kindInt attrKind = iota
	kindFloat
	kindStr
	kindBool
)

// Attr is one typed key/value attribute on a span. Construct with Int,
// Int64, Float, Str, or Bool.
type Attr struct {
	Key  string
	kind attrKind
	num  int64
	f    float64
	str  string
}

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, kind: kindInt, num: int64(v)} }

// Int64 builds an integer attribute from an int64.
func Int64(key string, v int64) Attr { return Attr{Key: key, kind: kindInt, num: v} }

// Float builds a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, kind: kindFloat, f: v} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, kind: kindStr, str: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr { return Attr{Key: key, kind: kindBool, num: b2i(v)} }

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// Value returns the attribute's value as the JSON-friendly dynamic type.
func (a Attr) Value() any {
	switch a.kind {
	case kindFloat:
		return a.f
	case kindStr:
		return a.str
	case kindBool:
		return a.num != 0
	default:
		return a.num
	}
}

// format renders the attribute as key=value for the text tree.
func (a Attr) format() string {
	switch a.kind {
	case kindFloat:
		return fmt.Sprintf("%s=%.4g", a.Key, a.f)
	case kindStr:
		return a.Key + "=" + a.str
	case kindBool:
		return fmt.Sprintf("%s=%t", a.Key, a.num != 0)
	default:
		return fmt.Sprintf("%s=%d", a.Key, a.num)
	}
}

// span is one recorded interval in the arena.
type span struct {
	parent int32 // arena index; -1 for the root
	name   string
	start  time.Time
	dur    time.Duration
	ended  bool
	attrs  []Attr
}

// Trace is one query's span tree. Construct with New; a nil *Trace is the
// untraced query and every method on it no-ops.
type Trace struct {
	mu      sync.Mutex
	start   time.Time
	spans   []span
	dropped int
}

// New starts a trace whose root span is named root.
func New(root string) *Trace {
	now := time.Now()
	t := &Trace{start: now}
	t.spans = append(t.spans, span{parent: -1, name: root, start: now})
	return t
}

// Root returns the root span handle; the zero Span on a nil trace.
func (t *Trace) Root() Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t}
}

// Dropped reports how many spans were discarded at the MaxSpans cap.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SpanCount reports the number of recorded spans (including the root).
func (t *Trace) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Span is a lightweight handle into a trace's span arena. The zero Span is
// inert: Start returns another zero Span, End/Annotate do nothing, Active
// reports false. Handles are values — copy freely.
type Span struct {
	t  *Trace
	id int32
}

// Active reports whether the handle records into a live trace. Hot paths
// guard attribute construction behind it so untraced queries allocate
// nothing.
func (s Span) Active() bool { return s.t != nil }

// Start begins a child span. On an inactive handle (or past the span cap) it
// returns an inactive handle.
func (s Span) Start(name string) Span {
	if s.t == nil {
		return Span{}
	}
	t := s.t
	t.mu.Lock()
	if len(t.spans) >= MaxSpans {
		t.dropped++
		t.mu.Unlock()
		return Span{}
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{parent: s.id, name: name, start: time.Now()})
	t.mu.Unlock()
	return Span{t: t, id: id}
}

// End closes the span, recording its duration and any attributes. The first
// End wins the duration; later calls only append attributes.
func (s Span) End(attrs ...Attr) {
	if s.t == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	sp := &t.spans[s.id]
	if !sp.ended {
		sp.ended = true
		sp.dur = time.Since(sp.start)
	}
	sp.attrs = append(sp.attrs, attrs...)
	t.mu.Unlock()
}

// Annotate appends attributes without ending the span.
func (s Span) Annotate(attrs ...Attr) {
	if s.t == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	t.spans[s.id].attrs = append(t.spans[s.id].attrs, attrs...)
	t.mu.Unlock()
}

// Child records an already-measured complete child span — the writer
// goroutine uses it to attach WAL append/fsync intervals it timed itself to
// a query's publish span. Returns the child's handle so grandchildren (the
// fsync under an append) can nest.
func (s Span) Child(name string, start time.Time, d time.Duration, attrs ...Attr) Span {
	if s.t == nil {
		return Span{}
	}
	t := s.t
	t.mu.Lock()
	if len(t.spans) >= MaxSpans {
		t.dropped++
		t.mu.Unlock()
		return Span{}
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{parent: s.id, name: name, start: start, dur: d, ended: true, attrs: attrs})
	t.mu.Unlock()
	return Span{t: t, id: id}
}

// Node is one span in the exported tree form: offsets and durations in
// microseconds relative to the trace start, attributes as a JSON object, and
// children in start order. The NDJSON trailer's {"trace": ...} object is a
// Node.
type Node struct {
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	Nodes   []*Node        `json:"spans,omitempty"`
}

// Duration returns the node's duration.
func (n *Node) Duration() time.Duration { return time.Duration(n.DurUS) * time.Microsecond }

// Find returns the first node named name in a pre-order walk (including the
// receiver), or nil.
func (n *Node) Find(name string) *Node {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Nodes {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// Tree exports the span tree rooted at the trace's root span. A span that
// was never ended is clamped to the root's end so the tree stays coherent.
// Nil-safe: a nil trace exports a nil tree.
func (t *Trace) Tree() *Node {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rootEnd := t.spans[0].start.Add(t.spans[0].dur)
	if !t.spans[0].ended {
		rootEnd = time.Now()
	}
	nodes := make([]*Node, len(t.spans))
	for i := range t.spans {
		sp := &t.spans[i]
		dur := sp.dur
		if !sp.ended {
			if dur = rootEnd.Sub(sp.start); dur < 0 {
				dur = 0
			}
		}
		nodes[i] = &Node{
			Name:    sp.name,
			StartUS: sp.start.Sub(t.start).Microseconds(),
			DurUS:   dur.Microseconds(),
		}
		if len(sp.attrs) > 0 {
			attrs := make(map[string]any, len(sp.attrs))
			for _, a := range sp.attrs {
				attrs[a.Key] = a.Value()
			}
			nodes[i].Attrs = attrs
		}
	}
	for i := 1; i < len(t.spans); i++ {
		p := nodes[t.spans[i].parent]
		p.Nodes = append(p.Nodes, nodes[i])
	}
	// Children append in creation order; concurrent writers (apply loop vs
	// query goroutine) can interleave, so order siblings by start offset for
	// a deterministic rendering.
	for _, n := range nodes {
		sort.SliceStable(n.Nodes, func(a, b int) bool { return n.Nodes[a].StartUS < n.Nodes[b].StartUS })
	}
	return nodes[0]
}

// JSON renders the tree as compact JSON (the slow-query log form).
func (t *Trace) JSON() []byte {
	if t == nil {
		return nil
	}
	b, _ := json.Marshal(t.Tree())
	return b
}

// Render renders the trace as an EXPLAIN ANALYZE-style flat tree: one line
// per span, indented by depth, with duration and attributes.
//
//	query                            1.82ms rows=3
//	  parse                          41µs bytes=55
//	  plan                           12µs
//	  exec                           1.6ms
//	    cleanselect                  1.5ms table=cities
//	      detect                     0.9ms scope=120 segments_skipped=6
func (t *Trace) Render() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	renderNode(&b, t.Tree(), 0)
	if d := t.Dropped(); d > 0 {
		fmt.Fprintf(&b, "(%d spans dropped at the %d-span cap)\n", d, MaxSpans)
	}
	return b.String()
}

func renderNode(b *strings.Builder, n *Node, depth int) {
	if n == nil {
		return
	}
	label := strings.Repeat("  ", depth) + n.Name
	if pad := 32 - len(label); pad > 0 {
		label += strings.Repeat(" ", pad)
	}
	b.WriteString(label)
	b.WriteString(" ")
	b.WriteString(formatDur(n.Duration()))
	if n.Attrs != nil {
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, " %s=%v", k, n.Attrs[k])
		}
	}
	b.WriteString("\n")
	for _, c := range n.Nodes {
		renderNode(b, c, depth+1)
	}
}

// Compact renders the tree as a single line — name=duration with children in
// brackets — the form the slow-query log emits per offending query.
//
//	query=1.82ms[parse=41µs plan=12µs exec=1.6ms[cleanselect=1.5ms[...]]]
func (t *Trace) Compact() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	compactNode(&b, t.Tree())
	return b.String()
}

func compactNode(b *strings.Builder, n *Node) {
	if n == nil {
		return
	}
	b.WriteString(n.Name)
	b.WriteString("=")
	b.WriteString(formatDur(n.Duration()))
	if len(n.Nodes) > 0 {
		b.WriteString("[")
		for i, c := range n.Nodes {
			if i > 0 {
				b.WriteString(" ")
			}
			compactNode(b, c)
		}
		b.WriteString("]")
	}
}

// formatDur rounds a duration to a readable precision for the text forms.
func formatDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}
