package gateway

import (
	"net/http"

	"xplace/internal/jobapi"
)

// NewMux wires the gateway's HTTP surface: the job API of jobapi.NewMux
// (the same handlers a worker serves) plus the fleet view:
//
//	GET /nodes  fleet routing state
func NewMux(g *Gateway) *http.ServeMux {
	mux := jobapi.NewMux(g)
	mux.HandleFunc("GET /nodes", func(w http.ResponseWriter, r *http.Request) {
		jobapi.WriteJSON(w, http.StatusOK, g.Nodes())
	})
	return mux
}
