package bufpool

// SetPoison turns on overwriting of every buffer Put takes back. Call it
// only while nothing else is using the pool.
func SetPoison(on bool) { poison = on }
