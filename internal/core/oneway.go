package core

import (
	"context"
	"errors"

	"openhpcxx/internal/obs"
	"openhpcxx/internal/wire"
)

// OneWayProtocol is implemented by protocol objects that can deliver a
// request without waiting for a reply — the ORB surface of Nexus's
// one-way remote service requests. The built-in stream, shm, and nexus
// protocols implement it; protocols that cannot (or glue chains over
// such a base) report ErrOneWayUnsupported.
type OneWayProtocol interface {
	Protocol
	Post(m *wire.Message) error
}

// ErrOneWayUnsupported is returned by Post when the selected protocol
// cannot deliver one-way requests.
var ErrOneWayUnsupported = errors.New("core: selected protocol does not support one-way requests")

// Post invokes a method without waiting for any result. Delivery is
// at-most-once with no failure notification beyond transport errors;
// method errors on the server are discarded. The request still flows
// through the selected protocol — including a glue protocol's
// capability chain, so one-way calls are metered and protected exactly
// like two-way ones.
func (g *GlobalPtr) Post(method string, args []byte) error {
	root := g.startRoot("post", method, args)
	ctx := context.Background()
	a, err := g.issue(ctx, root, wire.TControl, method, args, false)
	if err == nil {
		_, _, _, err = g.finish(ctx, root, &a, nil)
	}
	root.SetErr(err)
	root.End()
	return err
}

// handleOneWay executes a one-way request: same path as handleRequest
// but all results and errors are discarded and no frame travels back.
func (c *Context) handleOneWay(m *wire.Message, ds *obs.Active) {
	c.srv.oneway.Inc()
	req := *m
	req.Type = wire.TRequest
	reply, err := c.handleRequest(&req, ds)
	if err != nil {
		c.srv.onewayFaults.Inc()
	}
	reply.Release()
}
