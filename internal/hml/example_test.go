package hml_test

import (
	"fmt"

	"repro/internal/hml"
	"repro/internal/scenario"
)

// ExampleParse shows the markup language's core primitives: timed media, a
// synchronized audio+video group and a timed hyperlink.
func ExampleParse() {
	doc, err := hml.Parse(`<TITLE>Demo</TITLE>
<H1>A minimal scenario</H1>
<TEXT>Shown throughout. <B>Bold words.</B></TEXT>
<IMG SOURCE=img/cover ID=cover STARTIME=0 DURATION=5> </IMG>
<AU_VI SOURCE=au/n SOURCE=vi/c ID=n ID=c STARTIME=5 DURATION=10> </AU_VI>
<HLINK HREF=next AT=15 KIND=SEQ> </HLINK>`)
	if err != nil {
		fmt.Println("parse error:", err)
		return
	}
	// The markup carries the times; package scenario resolves them.
	sc, err := scenario.FromDocument(doc)
	if err != nil {
		fmt.Println("invalid:", err)
		return
	}
	st := hml.Statistics(doc)
	fmt.Printf("%q: %d image(s), %d sync group(s), length %s\n",
		doc.Title, st.Images, st.SyncGroups, sc.Length())
	// Output:
	// "Demo": 1 image(s), 1 sync group(s), length 15s
}

// ExampleValidate shows the semantic checks the service relies on.
func ExampleValidate() {
	doc := hml.MustParse(`<TITLE>Broken</TITLE>
<AU SOURCE=au/x ID=dup STARTIME=0 DURATION=5> </AU>
<VI SOURCE=vi/x ID=dup STARTIME=0 DURATION=5> </VI>`)
	err := hml.Validate(doc)
	fmt.Println(err)
	// Output:
	// hml: document "" invalid: duplicate media ID "dup"
}
