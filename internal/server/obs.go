package server

import (
	"fmt"

	"mainline"
	"mainline/internal/obs"
)

// serverObs holds the serving layer's latency instruments. They are
// created in the ENGINE's observability registry — not a private one — so
// they render on /metrics next to the engine histograms and share the
// engine's slow-op ring. Registry creation dedupes by (name, labels), so
// a second server attached to the same engine reuses the instruments
// instead of double-counting.
type serverObs struct {
	// reqHist is indexed by request frame kind; nil entries are kinds
	// that are not requests.
	reqHist [256]*obs.Histogram
	// deadline records the margin left when a deadline-carrying request
	// finished (0 = the deadline was hit or overshot).
	deadline *obs.Histogram
	// respsPerWrite records how many responses each socket write carried:
	// above 1 when a pipelined burst's replies share a write.
	respsPerWrite *obs.Histogram
	ring          *obs.TraceRing
}

// reqKinds is every request frame kind the session loop dispatches.
var reqKinds = []byte{
	reqBegin, reqCommit, reqAbort, reqInsert, reqUpdate, reqDelete,
	reqSelect, reqGetBy, reqRangeBy, reqCreateTable, reqCreateIndex,
	reqSchema, reqDoGet, reqDoPut, reqPing,
}

// txnIDKinds marks request kinds whose payload opens (after the u32
// deadline field) with the client-side transaction handle — peeked into
// slow-op spans without re-decoding the request.
var txnIDKinds = map[byte]bool{
	reqBegin: true, reqCommit: true, reqAbort: true, reqInsert: true, reqUpdate: true,
	reqDelete: true, reqSelect: true, reqGetBy: true, reqRangeBy: true,
}

func newServerObs(eng *mainline.Engine) *serverObs {
	r := eng.Admin().Obs()
	so := &serverObs{ring: r.Ring()}
	for _, k := range reqKinds {
		so.reqHist[k] = r.NewHistogram(
			"mainline_server_request_seconds",
			"request handling wall time by frame kind",
			"seconds",
			fmt.Sprintf("kind=%q", kindName(k)))
	}
	so.deadline = r.NewHistogram(
		"mainline_server_deadline_margin_seconds",
		"time left on the request deadline at completion (0 = missed)",
		"seconds", "")
	so.respsPerWrite = r.NewHistogram(
		"mainline_server_responses_per_write",
		"responses carried by one server socket write",
		"", "")
	return so
}
