package main

import (
	"context"
	"testing"
)

// The traced execution's hooks issue no simulated work: the fingerprint
// must not move, while every hook records something.
func TestTracedExecutionKeepsFingerprint(t *testing.T) {
	ctx := context.Background()
	plain := tiny.execute(ctx, tiny.options(5), nil, nil)
	tr := newTracer()
	traced := tiny.execute(ctx, tiny.options(5).With(tr.options()...), tr, nil)
	if plain.err != nil || traced.err != nil {
		t.Fatal(plain.err, traced.err)
	}
	if plain.fingerprint != traced.fingerprint {
		t.Fatalf("traced fingerprint %s, untraced %s", traced.fingerprint, plain.fingerprint)
	}
	if tr.codecCalls == 0 || tr.codecIn == 0 || tr.disk.requests == 0 || tr.fs.read == 0 {
		t.Fatalf("hooks recorded nothing: calls %d in %d disk %d fs %d", tr.codecCalls, tr.codecIn, tr.disk.requests, tr.fs.read)
	}
	if got := tr.total(spanCompress) + tr.total(spanDecompress); got <= 0 {
		t.Fatalf("codec spans total %v", got)
	}
	for _, s := range tr.spans {
		if s.Exec != 1 || s.End < s.Start {
			t.Fatalf("span %+v", s)
		}
		if (s.Name == spanCompress || s.Name == spanDecompress) && s.Parent != 1 {
			t.Fatalf("codec span %+v is not under the execution span", s)
		}
	}
}
