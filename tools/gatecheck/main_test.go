package main

import (
	"reflect"
	"testing"
)

func TestParseCommand(t *testing.T) {
	cases := []struct {
		line    string
		ok      bool
		pattern string
		pkgs    []string
	}{
		{"\t$(GO) test -race -run 'TestA|TestB' ./internal/core/ .", true, "TestA|TestB", []string{"./internal/core/", "."}},
		{"\tMPEG2_KERNELS=scalar $(GO) test -race -run 'Golden' ./x/", true, "Golden", []string{"./x/"}},
		{"        run: go test -run TestSchedCompareSmoke -v ./internal/bench/", true, "TestSchedCompareSmoke", []string{"./internal/bench/"}},
		{"\t$(GO) test -run=TestX", true, "TestX", []string{"."}},
		{"\t$(GO) test -run=NONE -bench=. ./...", false, "", nil},
		{"\t$(GO) test -race ./internal/sched/", false, "", nil},
		{"\t$(GO) vet ./...", false, "", nil},
	}
	for _, tc := range cases {
		g, ok := parseCommand(tc.line)
		if ok != tc.ok || g.pattern != tc.pattern || !reflect.DeepEqual(g.pkgs, tc.pkgs) {
			t.Errorf("parseCommand(%q) = %+v, %v; want pattern %q pkgs %v ok %v", tc.line, g, ok, tc.pattern, tc.pkgs, tc.ok)
		}
	}
}

func TestAlternatives(t *testing.T) {
	cases := map[string][]string{
		"TestA|TestB":      {"TestA", "TestB"},
		"Test(A|B)C|TestD": {"Test(A|B)C", "TestD"},
		"TestA/sub|TestB":  {"TestA"},
		"Test[|]X|Y":       {"Test[|]X", "Y"},
		`Test\|X|Y`:        {`Test\|X`, "Y"},
		"TierEquivalence":  {"TierEquivalence"},
	}
	for in, want := range cases {
		if got := alternatives(in); !reflect.DeepEqual(got, want) {
			t.Errorf("alternatives(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEmptyAlternatives(t *testing.T) {
	names := []string{"TestGolden", "TestSplitIndexedBitExact", "ExampleDecode"}
	got := emptyAlternatives("Golden|TestSplit|Example|TestRenamedAway", names)
	if want := []string{"TestRenamedAway"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("empty = %q, want %q", got, want)
	}
	if got := emptyAlternatives("TestGolden", names); got != nil {
		t.Fatalf("empty = %q, want none", got)
	}
}
