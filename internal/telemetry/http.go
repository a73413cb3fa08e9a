package telemetry

// Live sweep introspection: expvar (where internal/obs publishes the
// "autorfm.sweep" gauges, read from the runner at scrape time) plus
// net/http/pprof, both on the stdlib DefaultServeMux, served from one
// -http flag on autorfm-bench. A multi-minute sweep then answers "is it
// stuck, and where is the time going" without interrupting it:
//
//	curl localhost:6060/debug/vars        # {"autorfm.sweep": {...}, ...}
//	go tool pprof localhost:6060/debug/pprof/profile
//	curl localhost:6060/debug/pprof/goroutine?debug=1

import (
	_ "expvar" // registers /debug/vars on DefaultServeMux
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
)

// ServeIntrospection binds addr (e.g. ":6060" or "localhost:0") and serves
// the DefaultServeMux — /debug/vars from expvar and /debug/pprof/* from
// net/http/pprof — on a background goroutine. It returns the bound address
// (useful with port 0) or an error if the listen fails. The listener lives
// for the remainder of the process, matching the lifetime of a sweep.
func ServeIntrospection(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		// Serve only returns on listener failure; the process is exiting then
		// anyway, and introspection must never take the sweep down with it.
		_ = http.Serve(ln, nil)
	}()
	return ln.Addr().String(), nil
}
