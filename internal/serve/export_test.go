package serve

import "time"

// SetBodyReadTimeout lowers the request-body read bound for a test and
// returns the function that restores it.
func SetBodyReadTimeout(d time.Duration) (restore func()) {
	old := bodyReadTimeout
	bodyReadTimeout = d
	return func() { bodyReadTimeout = old }
}
