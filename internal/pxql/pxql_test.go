package pxql

import "testing"

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"FROB x",
		"PROJECT",
		"PROJECT a b",
		"SELECT",
		"SELECT nonsense",
		"SELECT VAL(R.book = x",
		"SELECT CARD(R.book, author) IN [1,2]",
		"SELECT CARD(R.book = B1, author) IN [a,b]",
		"SELECT CARD(R.book = B1, author) [1,2]",
		"PROB",
		"PROB EXISTS",
		"PROB OBJECT",
		"PROB R.book",
		"PROB VAL(R.x)",
		"WORLDS x",
		"WORLDS 1 2",
		"CHAIN",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestParseCaseInsensitive(t *testing.T) {
	q, err := Parse("select val(R.book.title) = Lore")
	if err != nil {
		t.Fatal(err)
	}
	if q.Op != "select" {
		t.Errorf("op = %q", q.Op)
	}
	q, err = Parse("prob exists R.book")
	if err != nil {
		t.Fatal(err)
	}
	if q.Op != "prob-exists" {
		t.Errorf("op = %q", q.Op)
	}
}
