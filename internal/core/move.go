package core

import (
	"strconv"

	"openhpcxx/internal/errs"
)

// BeginMove freezes a servant and snapshots its implementation state.
// New invocations block until the move commits or aborts; in-flight
// invocations have already drained when BeginMove returns. On success
// the servant is left frozen — the caller must CommitMove or AbortMove.
func (c *Context) BeginMove(id ObjectID) (*Servant, []byte, error) {
	s, ok := c.Servant(id)
	if !ok {
		return nil, nil, errs.Newf(errs.NoObject, "core: no object %s to move", id)
	}
	s.Freeze()
	state, err := s.SnapshotLocked()
	if err != nil {
		s.Unfreeze()
		return nil, nil, err
	}
	return s, state, nil
}

// CommitMove finishes a BeginMove: the frozen servant starts answering
// FaultMoved with the new reference, is removed from the context's
// table, and a tombstone forwards latecomers.
func (c *Context) CommitMove(s *Servant, newRef *ObjectRef) {
	tomb := movedFault(newRef)
	s.movedTo = tomb // safe: caller holds the freeze (write lock)
	s.Unfreeze()
	c.unexport(s.id, tomb)
	var num [20]byte
	c.rt.recordEvent("move-out", s.id, "left context "+c.name+" for "+newRef.Server.String()+
		" (epoch "+string(strconv.AppendUint(num[:0], newRef.Epoch, 10))+")")
}

// AbortMove releases a BeginMove without relocating the object.
func (c *Context) AbortMove(s *Servant) {
	s.Unfreeze()
}
