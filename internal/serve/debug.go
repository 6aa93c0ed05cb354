package serve

import (
	"net/http"
	"net/http/pprof"
)

// DebugHandler returns net/http/pprof's handlers on a mux of their own,
// for vmprimd -debug-addr to serve on a listener apart from the API.
// The API handler never routes /debug/pprof/. Importing net/http/pprof
// also registers the handlers on http.DefaultServeMux, which nothing in
// vmprimd serves.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
