package service

import (
	"bytes"
	"encoding/json"
	"fmt"

	"ftsched/internal/dag"
	"ftsched/internal/platform"
	"ftsched/internal/wire"
)

// request is what the bodies of the five POST endpoints have in common: an
// Instance — graph, platform, costs, 99.8 % of the bytes — next to a few
// endpoint-specific parameters, and a cross-check of the two.
type request interface {
	// instance returns where the body's graph, platform and costs go; every
	// request type has it by embedding Instance.
	instance() *Instance
	Validate() error
}

func (in *Instance) instance() *Instance { return in }

var instanceFields = wire.Fields{"graph", "platform", "costs"}

// decodeBody is the one decoder of every request body. It walks the
// top-level object once: the instance members go through the wire scanner
// straight into the graph arena and the matrix rows, and every other member
// — a few hundred bytes of scalars, scenario specs and grids — is spliced
// into a residual object that encoding/json decodes into req with unknown
// fields refused, so the parameter types and their rules are the struct's.
// A body must be one JSON document with nothing but whitespace after it.
// The error is safe to echo to the client.
//
// Whatever req's instance pointers hold on entry is storage to decode into
// (a pooled request's arena and rows), never data: a member the body omits
// or nulls ends nil, which Validate reports as missing. A repeated instance
// member is decoded again from nothing; the last one stands. A refused body
// hands the storage back — req then holds capacity for the next decode and
// nothing to read.
//
// Pooled storage also remembers the bytes it was decoded from
// (instanceMemo): a member whose bytes repeat them exactly is not decoded
// again but taken as the storage holds it — the graph only while the body
// still has room for its task count. Bodies past maxPooledBody leave nothing
// remembered, and a refused body forgets what it had. Only a zero request,
// the reference of the decode tests, decodes without pooled storage.
func decodeBody(body []byte, req request) error {
	in := req.instance()
	storage, memo := *in, in.memo
	*in = Instance{memo: memo}
	if len(body) > maxPooledBody {
		memo.forget()
		memo = nil
	}

	s := wire.NewScanner(body)
	rest := body // a body that is not an object is encoding/json's to refuse
	var err error
	if s.Peek() == '{' {
		if memo != nil {
			rest = append(memo.rest[:0], '{')
		} else {
			rest = append(make([]byte, 0, 256), '{')
		}
		// Every task needs a cost row, "[0]," at the least, in this same
		// body.
		maxTasks := len(body) / 4
		err = s.Object(func(key []byte) error {
			switch instanceFields.Index(key) {
			case 0:
				return scanMember(s, body, memo, 0, &in.Graph, &storage.Graph,
					func(g *dag.Graph) bool { return g.NumTasks() <= maxTasks },
					func(g *dag.Graph) error { return g.ScanJSONMax(s, maxTasks) })
			case 1:
				return scanMember(s, body, memo, 1, &in.Platform, &storage.Platform, nil,
					func(p *platform.Platform) error { return p.ScanJSON(s) })
			case 2:
				return scanMember(s, body, memo, 2, &in.Costs, &storage.Costs, nil,
					func(cm *platform.CostModel) error { return cm.ScanJSON(s) })
			}
			value, err := s.Raw()
			if len(rest) > 1 {
				rest = append(rest, ',')
			}
			rest = append(append(append(rest, key...), ':'), value...)
			return err
		})
		rest = append(rest, '}')
		if memo != nil {
			memo.rest = rest
		}
	} else {
		err = s.Skip()
	}
	if err == nil {
		err = s.End()
	}
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(rest))
		dec.DisallowUnknownFields()
		err = dec.Decode(req)
	}
	if err != nil {
		err = fmt.Errorf("decoding request: %w", err)
	} else {
		err = req.Validate()
	}
	if err != nil {
		*in = storage
		memo.forget()
	}
	return err
}
