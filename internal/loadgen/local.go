package loadgen

import (
	"context"
	"net/http/httptest"
	"sync"

	"repro/internal/admission"
	"repro/internal/httpapi"
	"repro/internal/ingest"
	"repro/internal/platform"
	"repro/internal/telemetry"
)

// LocalNode is an in-process trustnewsd-equivalent for `loadgen -local`
// and smoke tests: a full platform (admission control and telemetry on, as
// in production) behind a real HTTP listener, with the platform's
// committer putting submitted transactions in blocks the way a standalone
// daemon does. Measurements against it include the complete serving path
// minus only cross-host networking.
type LocalNode struct {
	P *platform.Platform
	// Ingest is the node's async ingestion pipeline, started and
	// serving POST /v1/ingest (in-memory queue WAL).
	Ingest *ingest.Pipeline
	URL    string

	srv      *httptest.Server
	stop     context.CancelFunc // stops the committer
	done     chan struct{}      // closed once it has drained and returned
	stopOnce sync.Once
}

// StartLocalNode boots the node on the default platform config with
// telemetry and admission enabled.
func StartLocalNode() (*LocalNode, error) {
	cfg := platform.DefaultConfig()
	cfg.Telemetry = telemetry.New()
	cfg.Admission = admission.DefaultConfig()
	p, err := platform.New(cfg)
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	n := &LocalNode{P: p, stop: stop, done: make(chan struct{})}
	q, err := ingest.NewQueue(nil, 0)
	if err != nil {
		return nil, err
	}
	n.Ingest = ingest.NewPipeline(p, q, 0)
	n.Ingest.Instrument(p.Telemetry())
	n.Ingest.Start()
	api := httpapi.New(p, false)
	api.SetIngest(n.Ingest)
	n.srv = httptest.NewServer(api)
	n.URL = n.srv.URL
	go func() {
		defer close(n.done)
		// A commit error means a bug elsewhere; tests observe the stall.
		_ = p.RunCommitter(ctx)
	}()
	return n, nil
}

// Close stops the ingest pipeline, the committer, and the HTTP
// listener, in that order (workers must stop submitting before the
// committer goes away).
func (n *LocalNode) Close() {
	n.stopOnce.Do(func() {
		n.Ingest.Stop()
		n.stop()
		<-n.done
		n.srv.Close()
	})
}
