// Golden corpus for the caprefund analyzer: a capability Process or
// Unprocess charge must be refunded on every error return, including
// charges carried from earlier iterations of a chain loop, forward or
// reverse; success returns and
// tuple-forwards keep the charge, and a refund inside a completion
// goroutine counts as a hand-off.
package caprefund

import (
	"errors"

	"openhpcxx/internal/capability"
)

// leaky charges and then errors out without refunding.
func leaky(c capability.Capability, f *capability.Frame, body []byte) ([]byte, error) {
	nb, _, err := c.Process(f, body)
	if err != nil {
		return nil, err // the charge never happened: Process itself failed
	}
	if len(nb) == 0 {
		return nil, errors.New("empty body") // want "capability charge is not refunded"
	}
	return nb, nil
}

// refunded hands the charge back before the error return.
func refunded(c capability.Capability, r capability.Refunder, f *capability.Frame, body []byte) ([]byte, error) {
	nb, _, err := c.Process(f, body)
	if err != nil {
		return nil, err
	}
	if len(nb) == 0 {
		r.Refund(f)
		return nil, errors.New("empty body")
	}
	return nb, nil
}

// chainLeak is the prefix bug: iteration i fails, iterations 0..i-1
// keep their charges.
func chainLeak(caps []capability.Capability, f *capability.Frame, body []byte) ([]byte, error) {
	for _, c := range caps {
		nb, _, err := c.Process(f, body)
		if err != nil {
			return nil, err // want "charges from earlier loop iterations"
		}
		body = nb
	}
	return body, nil
}

// chainRefunded rolls the processed prefix back before returning.
func chainRefunded(caps []capability.Capability, f *capability.Frame, body []byte) ([]byte, error) {
	for i, c := range caps {
		nb, _, err := c.Process(f, body)
		if err != nil {
			refund(caps[:i], f)
			return nil, err
		}
		body = nb
	}
	return body, nil
}

func refund(caps []capability.Capability, f *capability.Frame) {
	for i := len(caps) - 1; i >= 0; i-- {
		if r, ok := caps[i].(capability.Refunder); ok {
			r.Refund(f)
		}
	}
}

// reverseLeak is the server's walk without its refund: capability i
// rejects after capabilities i+1.. already charged the request.
func reverseLeak(caps []capability.Capability, f *capability.Frame, envs [][]byte, body []byte) ([]byte, error) {
	for i := len(caps) - 1; i >= 0; i-- {
		nb, err := caps[i].Unprocess(f, envs[i], body)
		if err != nil {
			return nil, err // want "charges from earlier loop iterations"
		}
		body = nb
	}
	return body, nil
}

// reverseRefunded rolls the un-processed suffix back before returning.
func reverseRefunded(caps []capability.Capability, f *capability.Frame, envs [][]byte, body []byte) ([]byte, error) {
	for i := len(caps) - 1; i >= 0; i-- {
		nb, err := caps[i].Unprocess(f, envs[i], body)
		if err != nil {
			refund(caps[i+1:], f)
			return nil, err
		}
		body = nb
	}
	return body, nil
}

// handsOff routes the refund decision into a completion goroutine: the
// closure owns the obligation from the point it appears.
func handsOff(c capability.Capability, r capability.Refunder, f *capability.Frame, body []byte, fail func() bool) error {
	_, _, err := c.Process(f, body)
	if err != nil {
		return err
	}
	go func() {
		if fail() {
			r.Refund(f)
		}
	}()
	if fail() {
		return errors.New("late failure") // completion goroutine owns the charge
	}
	return nil
}

// forward returns a callee's tuple: not a provable error return — the
// forwarded success path's consumer keeps the charge.
func forward(c capability.Capability, f *capability.Frame, body []byte) ([]byte, error) {
	nb, _, err := c.Process(f, body)
	if err != nil {
		return nil, err
	}
	return finish(nb)
}

func finish(b []byte) ([]byte, error) { return b, nil }

// reassigned invalidates the error guard: after err is rebound, a
// non-nil err no longer means the acquire failed.
func reassigned(c capability.Capability, f *capability.Frame, body []byte) error {
	_, _, err := c.Process(f, body)
	if err != nil {
		return err
	}
	err = validate(body)
	if err != nil {
		return err // want "capability charge is not refunded"
	}
	return nil
}

func validate([]byte) error { return nil }

// unbound charges without binding the results at all; the obligation
// still exists.
func unbound(c capability.Capability, f *capability.Frame, body []byte, fail bool) error {
	c.Process(f, body)
	if fail {
		return errors.New("rejected") // want "capability charge is not refunded"
	}
	return nil
}

// suppressed shows the escape hatch for a reply-direction chain.
func suppressed(c capability.Capability, f *capability.Frame, body []byte) error {
	_, _, err := c.Process(f, body)
	if err != nil {
		return err
	}
	//lint:ignore caprefund corpus: reply-direction processing charges nothing
	return errors.New("deliberate")
}
