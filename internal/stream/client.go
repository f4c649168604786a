package stream

import (
	"bufio"
	"fmt"
	"net"

	"github.com/distributed-predicates/gpd/internal/mux"
)

// Client is a blocking wire-protocol client. One Client owns one TCP
// connection; confine it to a goroutine (or guard it) — requests and
// replies are strictly alternating on the wire. Multiple clients can
// serve disjoint or even overlapping session sets concurrently.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// Dial connects to a stream server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream: dial: %w", err)
	}
	return &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip frames a request and decodes the reply.
func (c *Client) roundTrip(req Request) (Response, error) {
	req.V = ProtocolVersion
	if err := EncodeRequest(c.bw, req); err != nil {
		return Response{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return Response{}, err
	}
	resp, err := c.DecodeReply()
	if err != nil {
		return Response{}, err
	}
	if !resp.OK {
		return resp, fmt.Errorf("stream: server: %s", resp.Error)
	}
	return resp, nil
}

// DecodeReply reads one response frame (exported for pipelined callers).
func (c *Client) DecodeReply() (Response, error) {
	return DecodeResponse(c.br)
}

// Open creates a session on the server.
func (c *Client) Open(id string, spec Spec) error {
	_, err := c.roundTrip(Request{Type: "open", Session: id, Spec: &spec})
	return err
}

// Append streams a batch of events; the returned flag is the server's
// latched Possibly verdict as of the reply (it may trail these events —
// a true answer is final, a false one is refined by later replies).
func (c *Client) Append(id string, events []Event) (bool, error) {
	resp, err := c.roundTrip(Request{Type: "append", Session: id, Events: events})
	return resp.Possibly, err
}

// ClosePredicates finalizes the session and returns its verdict plus
// the fan-out: the final state of every predicate still registered at
// close, the open one ("_session") included.
func (c *Client) ClosePredicates(id string) (Verdict, []mux.Update, error) {
	resp, err := c.roundTrip(Request{Type: "close", Session: id})
	if err != nil {
		return Verdict{}, nil, err
	}
	if resp.Verdict == nil {
		return Verdict{}, nil, fmt.Errorf("stream: close reply without verdict")
	}
	return *resp.Verdict, resp.Predicates, nil
}

// RegisterPredicate attaches a predicate to an open session.
// The returned updates are any verdicts that latched at the registration
// cut itself (e.g. a predicate already satisfied by the seeded state).
func (c *Client) RegisterPredicate(id string, r RegisterSpec) ([]mux.Update, error) {
	resp, err := c.roundTrip(Request{Type: "register", Session: id, Register: &r})
	if err != nil {
		return nil, err
	}
	return resp.Updates, nil
}

// UnregisterPredicate detaches a predicate from a session.
func (c *Client) UnregisterPredicate(id, predID string) error {
	_, err := c.roundTrip(Request{Type: "unregister", Session: id, Predicate: predID})
	return err
}

// QueryUpdates returns the session's counters after a synchronous flush
// plus the per-predicate verdict updates queued since the previous
// drain.
func (c *Client) QueryUpdates(id string) (SessionStats, []mux.Update, error) {
	resp, err := c.roundTrip(Request{Type: "query", Session: id})
	if err != nil {
		return SessionStats{}, nil, err
	}
	if resp.Stats == nil {
		return SessionStats{}, nil, fmt.Errorf("stream: query reply without stats")
	}
	return *resp.Stats, resp.Updates, nil
}
