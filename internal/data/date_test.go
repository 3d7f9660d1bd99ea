package data

import (
	"fmt"
	"testing"
	"testing/quick"
)

// FormatDate renders a day number as an ISO 'YYYY-MM-DD' string.
func FormatDate(days int64) string { return string(appendDate(nil, days)) }

func TestDateKnownValues(t *testing.T) {
	cases := []struct {
		s    string
		days int64
	}{
		{"1970-01-01", 0},
		{"1970-01-02", 1},
		{"1969-12-31", -1},
		{"2000-01-01", 10957},
		{"1992-01-01", 8035},
		{"1998-08-02", 10440},
	}
	for _, c := range cases {
		got, err := ParseDate(c.s)
		if err != nil {
			t.Errorf("ParseDate(%q): %v", c.s, err)
			continue
		}
		if got != c.days {
			t.Errorf("ParseDate(%q) = %d, want %d", c.s, got, c.days)
		}
		if back := FormatDate(c.days); back != c.s {
			t.Errorf("FormatDate(%d) = %q, want %q", c.days, back, c.s)
		}
	}
}

func TestDateRoundTripProperty(t *testing.T) {
	// YMD -> days -> YMD round-trips across four centuries including
	// leap-century boundaries.
	f := func(off uint32) bool {
		days := int64(off%150000) - 10000 // ~1942..2380
		y, m, d := YMDFromDate(days)
		if m < 1 || m > 12 || d < 1 || d > 31 {
			return false
		}
		return DateFromYMD(y, m, d) == days
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLeapYears(t *testing.T) {
	// 2000 was a leap year (divisible by 400); 1900 was not.
	if got := DateFromYMD(2000, 3, 1) - DateFromYMD(2000, 2, 28); got != 2 {
		t.Errorf("Feb 2000 length wrong: gap %d, want 2", got)
	}
	if got := DateFromYMD(1900, 3, 1) - DateFromYMD(1900, 2, 28); got != 1 {
		t.Errorf("Feb 1900 length wrong: gap %d, want 1", got)
	}
}

func TestYear(t *testing.T) {
	if y := Year(MustParseDate("1995-06-17")); y != 1995 {
		t.Errorf("Year = %d, want 1995", y)
	}
	if y := Year(MustParseDate("1969-12-31")); y != 1969 {
		t.Errorf("Year = %d, want 1969", y)
	}
}

func TestParseDateErrors(t *testing.T) {
	for _, s := range []string{"", "1994", "1994/01/01", "1994-13-01", "1994-00-10", "1994-01-32", "abcd-01-01"} {
		if _, err := ParseDate(s); err == nil {
			t.Errorf("ParseDate(%q) succeeded, want error", s)
		}
	}
}

func TestMustParseDatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseDate did not panic")
		}
	}()
	MustParseDate("not-a-date")
}

func TestDateOrderingMatchesCalendar(t *testing.T) {
	a := MustParseDate("1994-01-01")
	b := MustParseDate("1995-01-01")
	if !(a < b) {
		t.Error("1994 should precede 1995 as day numbers")
	}
	if c, _ := Compare(nil, NewDate(a), NewDate(b)); c != -1 {
		t.Error("date Compare disagrees with day-number order")
	}
}

// TestFormatDateMatchesSprintf: the append-style renderer prints what
// fmt's "%04d-%02d-%02d" printed, negative and five-digit years included.
func TestFormatDateMatchesSprintf(t *testing.T) {
	for days := int64(-1_200_000); days <= 3_000_000; days += 997 {
		y, m, d := YMDFromDate(days)
		if got, want := FormatDate(days), fmt.Sprintf("%04d-%02d-%02d", y, m, d); got != want {
			t.Fatalf("FormatDate(%d) = %q, want %q", days, got, want)
		}
	}
}
