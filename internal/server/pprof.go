package server

import (
	"net/http"
	"net/http/pprof"
)

// WithPprof mounts the runtime profiling endpoints under /debug/pprof/ in
// front of next. This is opt-in (vpir-server's -pprof flag): the endpoints
// expose goroutine stacks and heap contents, so deployments keep them off
// unless actively profiling.
func WithPprof(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", next)
	return mux
}
