// Quickstart: build a tiny database, optimize a 3-way join, count the
// execution plans the optimizer considered, enumerate a few by number,
// and execute them — all plans must return the same rows, in ORDER BY
// order.
package main

import (
	"fmt"
	"log"
	"math/big"

	"repro/internal/catalog"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/storage"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A miniature school schema: the paper's Section 4 example joins
	// professors, students, enrollments, and courses.
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{
		Name: "students",
		Columns: []catalog.Column{
			{Name: "sid", Kind: data.KindInt},
			{Name: "sname", Kind: data.KindString},
		},
		Indexes:     []catalog.Index{{Name: "pk_students", KeyCols: []int{0}, Unique: true}},
		AvgRowBytes: 40,
	})
	cat.MustAdd(&catalog.Table{
		Name: "enrolled",
		Columns: []catalog.Column{
			{Name: "esid", Kind: data.KindInt},
			{Name: "title", Kind: data.KindString},
			{Name: "grade", Kind: data.KindInt},
		},
		Indexes:     []catalog.Index{{Name: "idx_enrolled_sid", KeyCols: []int{0}}},
		AvgRowBytes: 48,
	})
	cat.MustAdd(&catalog.Table{
		Name: "courses",
		Columns: []catalog.Column{
			{Name: "ctitle", Kind: data.KindString},
			{Name: "credits", Kind: data.KindInt},
		},
		Indexes:     []catalog.Index{{Name: "pk_courses", KeyCols: []int{0}, Unique: true}},
		AvgRowBytes: 40,
	})

	db := storage.NewDB(cat)
	students, _ := db.CreateTable("students")
	enrolled, _ := db.CreateTable("enrolled")
	courses, _ := db.CreateTable("courses")

	names := []string{"Sam White", "Ada Lovelace", "Edgar Codd", "Grace Hopper"}
	for i, n := range names {
		if err := students.Insert(i+1, n); err != nil {
			return err
		}
	}
	courseList := []struct {
		title   string
		credits int64
	}{{"Databases", 6}, {"Compilers", 6}, {"Queueing Theory", 4}}
	for _, c := range courseList {
		if err := courses.Insert(c.title, c.credits); err != nil {
			return err
		}
	}
	enrollments := []struct {
		sid   int64
		title string
		grade int64
	}{
		{1, "Databases", 1}, {1, "Compilers", 2},
		{2, "Databases", 1}, {2, "Queueing Theory", 1},
		{3, "Databases", 1}, {4, "Compilers", 3},
	}
	for _, e := range enrollments {
		if err := enrolled.Insert(e.sid, e.title, e.grade); err != nil {
			return err
		}
	}
	if err := db.ComputeStats(); err != nil {
		return err
	}

	// Optimize: the engine builds the MEMO, counts the plans it encodes,
	// and picks the cheapest one.
	e := engine.New(db)
	p, err := e.Prepare(`
		SELECT sname, ctitle, credits
		FROM students, enrolled, courses
		WHERE sid = esid AND title = ctitle AND grade <= 2
		ORDER BY sname, ctitle`)
	if err != nil {
		return err
	}

	fmt.Printf("The optimizer considered %s execution plans.\n\n", p.Count())

	rank, err := p.OptimalRank()
	if err != nil {
		return err
	}
	fmt.Printf("Optimal plan is number %s (cost %.2f):\n%s\n", rank, p.OptimalCost(), p.OptimalPlan())

	// Unrank a few plan numbers and execute them: every plan must return
	// the same rows in the ORDER BY order (the paper's testing
	// methodology).
	reference, err := p.Execute(p.OptimalPlan())
	if err != nil {
		return err
	}
	fmt.Printf("Result (%d rows):\n%s\n", len(reference.Rows), reference)

	total := p.Count().Int64()
	for _, r := range []int64{0, total / 3, 2 * total / 3, total - 1} {
		pl, err := p.Unrank(big.NewInt(r))
		if err != nil {
			return err
		}
		res, err := p.Execute(pl)
		if err != nil {
			return err
		}
		match := "MATCHES"
		if err := p.Check(res, reference); err != nil {
			match = fmt.Sprintf("DIFFERS (bug: %v) from", err)
		}
		sc, err := p.ScaledCost(pl)
		if err != nil {
			return err
		}
		fmt.Printf("plan %6d: scaled cost %8.2f, result %s optimal plan's\n", r, sc, match)
	}
	return nil
}
