package bufpool

// SetPoison turns on overwriting of every buffer Put takes back. A Put
// already under way when it is called may or may not overwrite.
func SetPoison(on bool) { poison.Store(on) }

// Forget drops every buffer kept across collections.
func Forget() {
	kept.Lock()
	kept.bufs, kept.bytes = [len(classes)][]*byte{}, 0
	kept.Unlock()
}
