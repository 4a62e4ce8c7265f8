package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestCheckCmdPathsReportsMissingCommands(t *testing.T) {
	root := t.TempDir()
	write := func(rel, text string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(filepath.Join(root, "cmd", "kept"), 0o755); err != nil {
		t.Fatal(err)
	}
	write("README.md", "go run ./cmd/kept\nthe `cmd/` binaries\nsee cmd/gone and ./cmd/kept/main.go\n")
	write("examples/demo/main.go", "// see cmd/other\n")
	write("CHANGES.md", "deleted cmd/gone\n") // history: not checked

	got, err := checkCmdPaths(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(root, "README.md") + ":3: cmd/gone does not exist",
		filepath.Join(root, "examples/demo/main.go") + ":1: cmd/other does not exist",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("findings = %q, want %q", got, want)
	}
}
