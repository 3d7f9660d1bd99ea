package data

import (
	"fmt"
	"strconv"
)

// Dates are day numbers relative to the epoch 1970-01-01. The civil
// calendar conversion below is the classic days-from-civil algorithm
// (Howard Hinnant's formulation), exact over the full Gregorian range and
// free of time-zone concerns, which keeps TPC-H data generation
// deterministic across platforms.

// DateFromYMD converts a civil date to a day number.
func DateFromYMD(y, m, d int) int64 {
	yy := int64(y)
	if m <= 2 {
		yy--
	}
	var era int64
	if yy >= 0 {
		era = yy / 400
	} else {
		era = (yy - 399) / 400
	}
	yoe := yy - era*400 // [0, 399]
	var mp int64
	if m > 2 {
		mp = int64(m) - 3
	} else {
		mp = int64(m) + 9
	}
	doy := (153*mp+2)/5 + int64(d) - 1     // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return era*146097 + doe - 719468       // shift epoch to 1970-01-01
}

// YMDFromDate converts a day number back to a civil date.
func YMDFromDate(days int64) (y, m, d int) {
	z := days + 719468
	var era int64
	if z >= 0 {
		era = z / 146097
	} else {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	yy := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100) // [0, 365]
	mp := (5*doy + 2) / 153                  // [0, 11]
	d = int(doy - (153*mp+2)/5 + 1)
	if mp < 10 {
		m = int(mp + 3)
	} else {
		m = int(mp - 9)
	}
	if m <= 2 {
		yy++
	}
	return int(yy), m, d
}

// Year returns the calendar year of a day number. The paper's TPC-H
// queries Q7/Q8/Q9 group by YEAR(date).
func Year(days int64) int {
	y, _, _ := YMDFromDate(days)
	return y
}

// ParseDate parses an ISO 'YYYY-MM-DD' literal into a day number.
func ParseDate(s string) (int64, error) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return 0, fmt.Errorf("data: invalid date literal %q (want YYYY-MM-DD)", s)
	}
	y, err := strconv.Atoi(s[0:4])
	if err != nil {
		return 0, fmt.Errorf("data: invalid year in date %q", s)
	}
	m, err := strconv.Atoi(s[5:7])
	if err != nil {
		return 0, fmt.Errorf("data: invalid month in date %q", s)
	}
	d, err := strconv.Atoi(s[8:10])
	if err != nil {
		return 0, fmt.Errorf("data: invalid day in date %q", s)
	}
	if m < 1 || m > 12 || d < 1 || d > 31 {
		return 0, fmt.Errorf("data: date %q out of range", s)
	}
	return DateFromYMD(y, m, d), nil
}

// MustParseDate is ParseDate for compile-time-constant literals in tests
// and the TPC-H generator; it panics on malformed input.
func MustParseDate(s string) int64 {
	d, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return d
}

// appendDate appends a day number as an ISO 'YYYY-MM-DD' string to b.
func appendDate(b []byte, days int64) []byte {
	y, m, d := YMDFromDate(days)
	b = appendPadded(b, y, 4)
	b = appendPadded(append(b, '-'), m, 2)
	return appendPadded(append(b, '-'), d, 2)
}

// appendPadded appends v zero-padded to width characters, sign included,
// as fmt's %0*d does.
func appendPadded(b []byte, v, width int) []byte {
	var tmp [20]byte
	digits := strconv.AppendInt(tmp[:0], int64(v), 10)
	if digits[0] == '-' {
		b = append(b, '-')
		digits, width = digits[1:], width-1
	}
	for n := len(digits); n < width; n++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}
