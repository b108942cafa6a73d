package capability

// Refunder is the optional interface of capabilities whose request-side
// Process or Unprocess charges a consumable resource (a quota count, a
// rate-limit token). The glue hands a charge back when the request that
// paid it cannot execute: a later capability of the same walk rejects it
// (client or server side alike), or the client's transport attempt dies
// before the request could reach the server — so the ORB's transparent
// retry does not charge the client mirror twice.
//
// A server authority is refunded only when its own chain rejects the
// request; one the server un-processed in full stays charged exactly once
// there, whatever the servant does, even if dispatch sheds it as expired.
type Refunder interface {
	// Refund undoes one request charge made by Process or Unprocess.
	Refund(f *Frame)
}
