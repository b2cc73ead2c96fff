package service

import (
	"fmt"
	"io"
	"sync"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
)

// The decode pool recycles the request struct together with its payload
// storage: the graph's adjacency arena (dag.Graph.ScanJSON rebuilds in
// place) and the platform and cost-model matrices (their ScanJSON decodes
// into the previous backing block). A warm decode of a same-shaped request
// performs no payload-sized allocations.
var scheduleRequestPool = sync.Pool{New: func() any { return new(ScheduleRequest) }}

// AcquireScheduleRequest returns a pooled request for use with
// DecodeScheduleRequestInto. Pass it to ReleaseScheduleRequest once the
// request — and everything aliasing its graph, platform or costs: schedules,
// frozen views, responses under construction — is no longer referenced.
func AcquireScheduleRequest() *ScheduleRequest {
	req := scheduleRequestPool.Get().(*ScheduleRequest)
	if req.Graph == nil {
		req.Graph = new(dag.Graph)
	}
	if req.Platform == nil {
		req.Platform = new(platform.Platform)
	}
	if req.Costs == nil {
		req.Costs = new(platform.CostModel)
	}
	return req
}

// ReleaseScheduleRequest recycles a request obtained from
// AcquireScheduleRequest, keeping its payload storage for the next decode.
// Safe only once nothing aliases the request's sub-objects.
func ReleaseScheduleRequest(req *ScheduleRequest) {
	if req == nil {
		return
	}
	*req = ScheduleRequest{Instance: req.Instance}
	scheduleRequestPool.Put(req)
}

// DecodeScheduleRequestInto is DecodeScheduleRequest decoding into req's
// existing graph, platform and cost-model storage — with a request from
// AcquireScheduleRequest, the graph decodes through its adjacency arena and
// the matrices into their previous rows, so the warm path allocates nothing
// proportional to the instance. Whatever req held before is overwritten.
func DecodeScheduleRequestInto(req *ScheduleRequest, r io.Reader) error {
	buf, err := acquireBody(r, 0)
	defer ReleaseBody(buf)
	if err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return decodeScheduleInto(req, buf.Bytes())
}

func decodeScheduleInto(req *ScheduleRequest, body []byte) error {
	*req = ScheduleRequest{Instance: req.Instance}
	return decodeBody(body, req)
}
