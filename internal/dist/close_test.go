package dist

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"
)

// slowDoneListener hands out connections whose writes of a lease reply
// carrying Done stall for delay — long enough that the coordinator's
// post-completion linger has returned and the caller has moved on to
// Close while the last reply is still on its way out.
type slowDoneListener struct {
	net.Listener
	delay time.Duration
}

func (l slowDoneListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return slowDoneConn{c, l.delay}, nil
}

type slowDoneConn struct {
	net.Conn
	delay time.Duration
}

func (c slowDoneConn) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(`"done":true`)) {
		time.Sleep(c.delay)
	}
	return c.Conn.Write(p)
}

// TestCloseDeliversFinalDone closes the coordinator the moment its
// campaign returns, as the sweep CLI's deferred Close does, while the
// Done reply that ends the worker's last slot is still being written.
// Close must let that reply out: a worker whose reply is cut off sees EOF
// on /lease and retries a closed port until its outage window runs out.
func TestCloseDeliversFinalDone(t *testing.T) {
	jobs := testJobs(t, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Options{LongPoll: 100 * time.Millisecond})
	c.serve(slowDoneListener{ln, 300 * time.Millisecond})

	ctx := context.Background()
	closed := make(chan error, 1)
	go func() {
		_, _, err := c.RunContext(ctx, jobs)
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		closed <- err
	}()

	w := &Worker{Coordinator: c.Addr(), Name: "last", Slots: 1, RetryWindow: time.Second}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker lost the final Done reply to Close: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}
