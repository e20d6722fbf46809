package server

import (
	"embed"
	"io/fs"
	"net/http"
)

// The dashboard is plain static HTML+JS+CSS compiled into the binary:
// zero external assets, zero build toolchain. A bare vpir-server serves the
// whole analysis UI.
//
//go:embed ui
var uiFiles embed.FS

// uiHandler serves the embedded analysis dashboard. Mount it at /v1/ui/;
// requests for the directory itself fall through to index.html.
func uiHandler() http.Handler {
	sub, err := fs.Sub(uiFiles, "ui")
	if err != nil {
		// The tree is compiled in; a missing subdirectory is a build bug.
		panic("server: embedded ui assets missing: " + err.Error())
	}
	return http.StripPrefix("/v1/ui/", http.FileServerFS(sub))
}

// redirectUI sends bare /v1/ui (and /) to the dashboard index.
func redirectUI(w http.ResponseWriter, r *http.Request) {
	http.Redirect(w, r, "/v1/ui/", http.StatusMovedPermanently)
}
