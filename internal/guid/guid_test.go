package guid

import "testing"

func TestParse(t *testing.T) {
	g, err := Parse("7070714")
	if err != nil {
		t.Fatal(err)
	}
	if g != 7070714 {
		t.Fatalf("g = %v", g)
	}
	if g.String() != "7070714" {
		t.Fatalf("String = %q", g.String())
	}
	if !g.IsValid() {
		t.Fatal("valid GUID reported invalid")
	}
}

func TestParseHex(t *testing.T) {
	g, err := Parse("0x1001")
	if err != nil {
		t.Fatal(err)
	}
	if g != IIDOffcode {
		t.Fatalf("g = %v, want %v", g, IIDOffcode)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "abc", "-1", "0"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestNilInvalid(t *testing.T) {
	if Nil.IsValid() {
		t.Fatal("Nil GUID reported valid")
	}
}
