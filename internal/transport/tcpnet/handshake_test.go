package tcpnet

// The one-version handshake, driven over raw sockets: HELLO is a strict
// equality check on ProtocolVersion in both directions, and a mismatch
// is refused before any fragment is shipped or read.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/wire"
)

func TestHelloVersionMismatchRefused(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	srv := &Server{}
	go srv.Serve(lis)

	// A driver offering any version but the daemon's gets an ERR naming
	// both numbers, and the daemon hangs up instead of waiting for DEPLOY.
	for _, v := range []uint16{ProtocolVersion - 1, ProtocolVersion + 1} {
		c, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := writeFrame(c, 0, frameHello, appendU16([]byte(helloMagic), v)); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(c)
		typ, body, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("v%d: awaiting the refusal: %v", v, err)
		}
		if typ != frameErr {
			t.Fatalf("v%d: daemon answered %s, want ERR", v, frameName(typ))
		}
		e, err := decodeErr(body)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []uint16{v, ProtocolVersion} {
			if !strings.Contains(e.msg, fmt.Sprint(n)) {
				t.Fatalf("v%d: refusal %q does not name version %d", v, e.msg, n)
			}
		}
		if _, _, err := wire.ReadFrame(br); !errors.Is(err, io.EOF) {
			t.Fatalf("v%d: after the refusal the daemon kept the connection (read: %v)", v, err)
		}
		c.Close()
	}

	// A daemon answering HELLO-OK with another version fails Dial with an
	// error naming both, and never sees a DEPLOY.
	fake, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()
	afterHelloOK := make(chan error, 1)
	go func() {
		c, err := fake.Accept()
		if err != nil {
			afterHelloOK <- err
			return
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReader(c)
		if typ, _, err := wire.ReadFrame(br); err != nil || typ != frameHello {
			afterHelloOK <- fmt.Errorf("fake daemon: expected HELLO, got %s (%v)", frameName(typ), err)
			return
		}
		if _, err := writeFrame(c, 0, frameHelloOK, appendU16(nil, ProtocolVersion+1)); err != nil {
			afterHelloOK <- err
			return
		}
		typ, _, err := wire.ReadFrame(br)
		if err == nil {
			err = fmt.Errorf("fake daemon: driver sent %s after a mismatched HELLO-OK", frameName(typ))
		}
		afterHelloOK <- err
	}()
	b := graph.NewBuilder()
	b.AddNode("x")
	b.AddNode("x")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fr, err := partition.Build(g, []int32{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = Dial(ctx, []string{fake.Addr().String()}, fr, Options{})
	if err == nil {
		t.Fatal("Dial accepted a HELLO-OK carrying another protocol version")
	}
	for _, want := range []string{"protocol version mismatch", fmt.Sprint(ProtocolVersion), fmt.Sprint(ProtocolVersion + 1)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Dial error %q does not mention %q", err, want)
		}
	}
	if err := <-afterHelloOK; !errors.Is(err, io.EOF) {
		t.Fatalf("driver did not hang up after the mismatched HELLO-OK: %v", err)
	}
}
