package bufpool

// SetPoison turns on overwriting of every buffer Put takes back. Call it
// only while nothing else is using the pool.
func SetPoison(on bool) { poison = on }

// Forget drops every buffer kept across collections.
func Forget() {
	kept.Lock()
	kept.bufs, kept.bytes = [len(classes)][]*byte{}, 0
	kept.Unlock()
}
