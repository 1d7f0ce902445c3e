package core

// A helper runs the second stage of a two-goroutine pipeline — warm
// fast-forward's generating stage (fastforward.go) or a streamed run's
// producer (stream.go) — on a goroutine of its own. The stage sees a stop
// channel, which join closes, and must return soon after; whatever it
// holds when it returns is the caller's again. The zero helper is idle.
type helper struct {
	stop  chan struct{}
	done  chan struct{} // closed once the stage's goroutine has finished
	fault any           // the stage's panic, written before done closes
}

// start runs stage on a new goroutine. The helper must be idle.
func (h *helper) start(stage func(stop <-chan struct{})) {
	h.stop, h.done, h.fault = make(chan struct{}), make(chan struct{}), nil
	go h.run(stage)
}

func (h *helper) run(stage func(stop <-chan struct{})) {
	defer close(h.done)
	defer func() { h.fault = recover() }()
	stage(h.stop)
}

// running reports whether a stage was started and not yet joined.
func (h *helper) running() bool { return h.done != nil }

// join stops the stage, waits until its goroutine has finished and leaves
// the helper idle. A stage that panicked has its panic re-raised here,
// on the caller's goroutine, with its original value. Joining an idle
// helper does nothing.
func (h *helper) join() {
	if h.done == nil {
		return
	}
	close(h.stop)
	<-h.done
	fault := h.fault
	*h = helper{}
	if fault != nil {
		panic(fault)
	}
}
