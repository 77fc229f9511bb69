package core

import (
	"fmt"

	"gminer/internal/graph"
	"gminer/internal/wire"
)

// Status is the lifetime state of a task (§4.2, "Task lifetime").
type Status uint8

const (
	// StatusActive: currently being processed by update, or eligible to be
	// because all its candidates are local/cached.
	StatusActive Status = iota
	// StatusInactive: waiting in the task store; at least one candidate
	// must be pulled from a remote worker.
	StatusInactive
	// StatusReady: all remote candidates pulled; queued in the CPQ.
	StatusReady
	// StatusDead: finished (reported or confirmed fruitless).
	StatusDead
)

func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusInactive:
		return "inactive"
	case StatusReady:
		return "ready"
	case StatusDead:
		return "dead"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Task is one independent unit of mining work: the intermediate subgraph
// g, the candidate vertex IDs used to update g in the next round, and the
// algorithm-defined context (§4.2).
type Task struct {
	// ID is unique within a job (high bits: origin worker).
	ID uint64
	// Round is the current update round, starting at 1 for the first
	// Update call after seeding.
	Round int
	// Subgraph is the intermediate subgraph g.
	Subgraph Subgraph
	// Cands holds the candidate vertex IDs for the current round
	// (candVtxs in Listing 1).
	Cands []graph.VertexID
	// Context holds algorithm state (e.g. GM's (round, count) pair). It is
	// serialized by the algorithm's context codec when the task crosses
	// the wire or is spilled.
	Context any

	// status tracks the lifetime state; maintained by the runtime.
	status Status

	// pull accumulates the next round's candidates requested by Update.
	pull []graph.VertexID

	// ToPull is the subset of Cands that must be fetched from remote
	// workers; computed by the candidate retriever and consumed for LSH
	// signing and the locality rate lr(t) of task stealing.
	ToPull []graph.VertexID

	// Resident counts the candidates the worker reads in place though another
	// worker owns them (lists the view keeps resident on every worker). Like
	// ToPull it is the candidate retriever's, recomputed at every intake; it
	// is never serialized — a task reloaded from a spill block has none until
	// then, and reads as more attached to its worker than it is.
	Resident int

	// Pulled holds, parallel to ToPull, the vertex objects the candidate
	// retriever obtained for this round (each one a reference held in the
	// RCV cache until the round ends), so the executor resolves remote
	// candidates without going back to the cache. Runtime-owned and never
	// serialized: a task outside a round has none.
	Pulled []*graph.Vertex

	// spawned collects child tasks created during Update (recursive task
	// splitting, §9 future work).
	spawned []*Task
}

// Status returns the task's lifetime state.
func (t *Task) Status() Status { return t.status }

// SetStatus is used by the runtime to advance the lifetime state.
func (t *Task) SetStatus(s Status) { t.status = s }

// Pull requests the given candidates for the next round ("reset it through
// pull() for the next round", §5.2). Calling Pull at least once during
// Update keeps the task alive; not calling it lets the task die after the
// current round.
func (t *Task) Pull(ids ...graph.VertexID) {
	t.pull = append(t.pull, ids...)
}

// Spawn schedules a child task for execution. The child inherits nothing
// implicitly; callers typically Clone the parent subgraph.
func (t *Task) Spawn(child *Task) {
	t.spawned = append(t.spawned, child)
}

// TakeTransition consumes the results of one Update call: the requested
// next-round candidates (nil means the task dies) and any spawned
// children. The runtime advances Round and replaces Cands when the task
// survives.
func (t *Task) TakeTransition() (next []graph.VertexID, children []*Task) {
	next, children = t.pull, t.spawned
	t.pull, t.spawned = nil, nil
	return next, children
}

// Advance moves the task into its next round with the given candidates.
func (t *Task) Advance(next []graph.VertexID) {
	t.Cands = next
	t.Round++
}

// CostC is the migration cost c(t) = |t.subG| + |t.candVtxs| (Eq. 2).
func (t *Task) CostC() int { return t.Subgraph.Len() + len(t.Cands) }

// LocalRate is lr(t) = owned / (owned + |to_pull|), the task's dependency
// on its current worker: of the candidates that live on one worker only, the
// share that lives on this one. Without resident candidates that is Eq. 3,
// (|cand| − |to_pull|) / |cand|; a resident candidate is as local on the
// thief as on the victim, so it counts on neither side. A task with nothing
// but resident candidates, or none at all, has lr = 0 (fully migratable).
func (t *Task) LocalRate() float64 {
	owned := len(t.Cands) - len(t.ToPull) - t.Resident
	if owned <= 0 {
		return 0
	}
	return float64(owned) / float64(owned+len(t.ToPull))
}

// FootprintBytes estimates in-memory size for memory accounting.
func (t *Task) FootprintBytes() int64 {
	return 96 + t.Subgraph.FootprintBytes() + int64(8*(len(t.Cands)+len(t.ToPull)))
}

// ContextCodec serializes algorithm contexts. Algorithms with no context
// can embed NoContext.
type ContextCodec interface {
	EncodeContext(w *wire.Writer, ctx any)
	DecodeContext(r *wire.Reader) any
}

// EncodeTask serializes a task (for migration, spilling or checkpointing)
// using the algorithm's context codec. ToPull is carried along: a task
// reloaded from a spill block on the same worker must still know which
// candidates to pull (a migrated task's receiver recomputes it against
// its own partition instead).
func EncodeTask(w *wire.Writer, t *Task, codec ContextCodec) {
	w.Uvarint(t.ID)
	w.Int(t.Round)
	encodeSubgraph(w, &t.Subgraph)
	wire.EncodeIDs(w, t.Cands)
	wire.EncodeIDs(w, t.ToPull)
	codec.EncodeContext(w, t.Context)
}

// DecodeTask reads a task serialized by EncodeTask. Status is reset to
// inactive: a deserialized task always re-enters via the task store.
func DecodeTask(r *wire.Reader, codec ContextCodec) (*Task, error) {
	t := &Task{}
	t.ID = r.Uvarint()
	t.Round = r.Int()
	t.Subgraph = decodeSubgraph(r)
	t.Cands = wire.DecodeIDs(r)
	t.ToPull = wire.DecodeIDs(r)
	t.Context = codec.DecodeContext(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	t.status = StatusInactive
	return t, nil
}

// NoContext is a ContextCodec for algorithms whose tasks carry no context.
type NoContext struct{}

// EncodeContext implements ContextCodec.
func (NoContext) EncodeContext(w *wire.Writer, ctx any) {}

// DecodeContext implements ContextCodec.
func (NoContext) DecodeContext(r *wire.Reader) any { return nil }
