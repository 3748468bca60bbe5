//! Every replacement of ISSUE 22 against what it replaced (`oracle/`): the
//! flat parser against the token-stream tree builder, the three-rung
//! extractor against the one that walked the old tree, the trimmed line
//! diff against the full-table one — on the synthetic web's own pages and
//! on generated malformed input.

mod oracle;

use std::collections::BTreeMap;

use proptest::prelude::*;
use sheriff_geo::{Country, IpAllocator};
use sheriff_html::diff::LineDiff;
use sheriff_html::tagspath::{extract_by_path, MatchQuality, TagsPath};
use sheriff_html::{Document, NodeId, NodeKind};
use sheriff_market::page::{price_markup, render_captcha};
use sheriff_market::pricing::{Browser, FetchContext, Os};
use sheriff_market::world::WorldConfig;
use sheriff_market::{CookieJar, FetchResult, ProductId, UserAgent, World};

/// One node, flattened: parent index, element name, attributes as a
/// sorted map, text. Both parsers number nodes in document order, so
/// equal rows mean equal trees, child order included.
type Row = (
    Option<usize>,
    Option<String>,
    BTreeMap<String, String>,
    Option<String>,
);

fn rows_new(doc: &Document) -> Vec<Row> {
    doc.descendants(doc.root())
        .map(|id| {
            let attrs = doc
                .attrs(id)
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            let text = (doc.kind(id) == NodeKind::Text).then(|| doc.text_content(id));
            (
                doc.parent(id).map(|p| p.0),
                doc.name(id).map(str::to_string),
                attrs,
                text,
            )
        })
        .collect()
}

fn rows_old(doc: &oracle::dom::Document) -> Vec<Row> {
    (0..doc.len())
        .map(|i| {
            let id = oracle::dom::NodeId(i);
            let (name, attrs, text) = match doc.kind(id) {
                oracle::dom::NodeKind::Document => (None, BTreeMap::new(), None),
                oracle::dom::NodeKind::Element { name, attrs } => {
                    (Some(name.clone()), attrs.clone(), None)
                }
                oracle::dom::NodeKind::Text(t) => (None, BTreeMap::new(), Some(t.clone())),
            };
            (doc.parent(id).map(|p| p.0), name, attrs, text)
        })
        .collect()
}

/// Same tree, same children lists, same serialization, same subtree text.
fn assert_same_tree(html: &str) -> (Document, oracle::dom::Document) {
    let new = Document::parse(html);
    let old = oracle::dom::Document::parse(html);
    assert_eq!(rows_new(&new), rows_old(&old), "tree of {html:?}");
    for i in 0..old.len() {
        let kids: Vec<usize> = new.children(NodeId(i)).map(|c| c.0).collect();
        let old_kids: Vec<usize> = old
            .children(oracle::dom::NodeId(i))
            .iter()
            .map(|c| c.0)
            .collect();
        assert_eq!(kids, old_kids, "children of node {i} in {html:?}");
    }
    assert_eq!(
        new.serialize(new.root()),
        old.serialize(old.root()),
        "serialization of {html:?}"
    );
    assert_eq!(
        new.text_content(new.root()),
        old.text_content(old.root()),
        "text of {html:?}"
    );
    (new, old)
}

/// Recording on `from` and replaying on `on` agree between old and new:
/// same path, same node, same rung (which is returned).
fn assert_same_extraction(from: &str, on: &str, tag: &str, class: &str) -> Option<MatchQuality> {
    let (new_from, old_from) = assert_same_tree(from);
    let el = new_from.find_by_class(tag, class)?;
    let path = TagsPath::from_node(&new_from, el).expect("element has a path");
    assert_eq!(
        Some(&path),
        oracle::tagspath::from_node(&old_from, oracle::dom::NodeId(el.0)).as_ref()
    );
    let (new_on, old_on) = assert_same_tree(on);
    let hit = extract_by_path(&new_on, &path);
    assert_eq!(
        hit.map(|(n, q)| (n.0, q)),
        oracle::tagspath::extract_by_path(&old_on, &path).map(|(n, q)| (n.0, q)),
        "path {path:?} on {on:?}"
    );
    hit.map(|(_, q)| q)
}

const COUNTRIES: [Country; 8] = [
    Country::ES,
    Country::US,
    Country::JP,
    Country::CA,
    Country::SE,
    Country::DE,
    Country::GB,
    Country::BR,
];

/// One product page per (country, request) for `domain`: ad banners vary
/// with the request, currency and price with the country.
fn pages_of(world: &mut World, domain: &str, requests: u64) -> Vec<String> {
    let rates = world.rates.clone();
    let jar = CookieJar::new();
    let mut alloc = IpAllocator::new();
    let mut pages = Vec::new();
    for (c, country) in COUNTRIES.into_iter().enumerate() {
        for seq in 0..requests {
            let ctx = FetchContext {
                ip: alloc.allocate(country, 0),
                country,
                cookies: &jar,
                user_agent: UserAgent {
                    os: Os::Linux,
                    browser: Browser::Firefox,
                },
                logged_in: false,
                day: 0,
                time_quarter: 0,
                request_seq: seq * 8 + c as u64,
                client_id: seq,
            };
            let retailer = world.retailer_mut(domain).expect("listed domain");
            // A day apart, so bot detectors let every request through.
            let now_ms = (c as u64 * requests + seq) * 86_400_000;
            match retailer.fetch(ProductId(1), &ctx, now_ms, &rates, 0.3, seq) {
                Some(FetchResult::Page { html, .. } | FetchResult::Captcha { html }) => {
                    pages.push(html);
                }
                None => panic!("{domain} has no product 1"),
            }
        }
    }
    pages
}

#[test]
fn synthetic_web_pages_parse_to_the_same_tree_and_extract_the_same_node() {
    let mut world = World::build(&WorldConfig::small(), 5);
    let domains: Vec<String> = world.domains().map(str::to_string).collect();
    let mut ad_counts = [0usize; 4];
    let mut rungs = Vec::new();
    for domain in &domains {
        let template = world.retailer(domain).expect("listed").template;
        let (tag, class) = price_markup(template);
        let mut pages = pages_of(&mut world, domain, 3);
        pages.push(render_captcha(domain));
        for page in &pages {
            ad_counts[page.matches("class=\"ad-banner\"").count()] += 1;
        }
        // Every page replays the path recorded on the page before it: a
        // different country, usually a different number of ads.
        for pair in pages.windows(2) {
            rungs.push(assert_same_extraction(&pair[0], &pair[1], tag, class));
        }
        // A path recorded under a structure this site does not have can
        // only be found by the global rung; the CAPTCHA page above has
        // nothing to find.
        let foreign = format!(
            "<html><body><section><{tag} class=\"{class}\">x</{tag}></section></body></html>"
        );
        rungs.push(assert_same_extraction(&foreign, &pages[0], tag, class));
    }
    assert!(
        ad_counts.iter().all(|&n| n > 0),
        "pages with 0–3 ads: {ad_counts:?}"
    );
    // The comparison saw every rung of the ladder, and a miss.
    for outcome in [
        Some(MatchQuality::Exact),
        Some(MatchQuality::Relaxed),
        Some(MatchQuality::Global),
        None,
    ] {
        assert!(rungs.contains(&outcome), "no extraction ended {outcome:?}");
    }
}

#[test]
fn hand_picked_malformed_markup_parses_to_the_same_tree() {
    for html in [
        "",
        "<",
        "</",
        "<>",
        "<a",
        "<a b",
        "<a b=",
        "<a b='c",
        "a < b <= c",
        "<<<>>><",
        "<p>one<p>two</div>after",
        "</div><p>ok</p>",
        "<div><b>x</i>y</div></b><p>z</p>",
        "<a><b><c></a>d</c></b>",
        "<A HREF=x href=y Class='K' class=k>t</a >",
        "<img src=a/><br/><div/>x",
        "<x =y z>",
        "<a \"q\"=1 '=2 /=3>",
        "<a b = 'c' d = e f>",
        "<script>if (a < b) { s = \"</div>\"; }</SCRIPT x>t<style></style><style> </style>",
        "<script>never closed <p>x</p>",
        "<script/>x<p>y</p>",
        "<textarea>&lt;&amp;&#36;&#x24;&nbsp;&euro;&bogus;&;&#;&#xZZ;&toolongname;</textarea>",
        "&nbsp; &#32; <p>&nbsp;</p>x&",
        "<!-- c --><!doctype html><?php ?><!-- unterminated",
        "<!",
        "<p title=\"a&amp;b\" data-x=a&amp;b>é ü €</p>",
        "<DIV><SPAN CLASS=Price>1</SPAN></DIV>",
        "<é>x</é><a é=1 É=2>",
        "</ a b ></>",
    ] {
        assert_same_extraction(html, html, "span", "price");
    }
}

/// The pieces a tokenizer branches on.
const PIECES: [&str; 44] = [
    "<",
    ">",
    "</",
    "/>",
    "=",
    "\"",
    "'",
    " ",
    "&amp;",
    "&#36;",
    "&nbsp;",
    "&x",
    "<!--",
    "-->",
    "<!D>",
    "<script>",
    "</script>",
    "<STYLE>",
    "</style >",
    "<br>",
    "<img src=a>",
    "<div",
    "<span",
    "<p",
    "<b",
    "<i>",
    "<td>",
    "<A",
    "<Div>",
    "</div>",
    "</span>",
    "</p>",
    "</b>",
    "</i>",
    "</td>",
    "</A>",
    "</DIV>",
    " class=price",
    " class=\"price\"",
    " class='a b'",
    " CLASS=q",
    " id=x",
    " id='y'",
    " x",
];

/// Markup-shaped soup: the pieces above, plain words and arbitrary
/// printable characters, in any order.
fn fragment() -> impl Strategy<Value = String> {
    let piece =
        (0..PIECES.len() + 8, "[a-z0-9 ]{1,6}", "\\PC{1,4}").prop_map(|(pick, word, any)| {
            match PIECES.get(pick) {
                Some(p) => (*p).to_string(),
                None if pick % 2 == 0 => word,
                None => any,
            }
        });
    proptest::collection::vec(piece, 0..40).prop_map(|v| v.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn malformed_fragments_parse_to_the_same_tree(html in fragment()) {
        assert_same_tree(&html);
    }

    #[test]
    fn malformed_fragments_extract_the_same_node(from in fragment(), on in fragment()) {
        for (tag, class) in [("span", "price"), ("div", "price"), ("p", "a b")] {
            assert_same_extraction(&from, &on, tag, class);
        }
    }

    #[test]
    fn arbitrary_text_parses_to_the_same_tree(html in "\\PC{0,200}") {
        assert_same_tree(&html);
    }
}

// ---------------------------------------------------------------------
// Line diff
// ---------------------------------------------------------------------

fn assert_same_ops(base: &str, variant: &str) {
    let new = LineDiff::compute(base, variant);
    let old = oracle::diff::LineDiff::compute(base, variant);
    assert_eq!(new.ops(), &old.ops[..], "{base:?} -> {variant:?}");
    assert_eq!(new.apply(base).as_deref(), Some(variant));
}

#[test]
fn prefix_line_that_recurs_is_not_trimmed() {
    // The full backtrack pairs the base's `A` with the variant's second
    // `A`; trimming the shared first line would pair it with the first.
    // (Here the suffix trim happens to settle it before the prefix is
    // looked at; the cases after it have no common suffix to hide behind.)
    assert_same_ops("A\nB", "A\nA\nB");
    assert_same_ops("A\nA\nB", "A\nB");
    assert_same_ops("A\nA\nA", "A\nB\nA\nB\nB");
    assert_same_ops("A\nB\nA\nC", "A\nA\nD");
    assert_same_ops("A\nX\nA\nY", "A\nY\nA");
}

#[test]
fn small_alphabet_line_sets_diff_to_the_same_ops() {
    // Lengths 0–8 over {a, b, c}: short enough that every alignment tie
    // the prefix rule has to respect turns up, 120 000 pairs of them.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    let lines = |next: &mut dyn FnMut(u64) -> u64| {
        let len = next(9);
        let v: Vec<&str> = (0..len)
            .map(|_| ["a", "b", "c"][next(3) as usize])
            .collect();
        v.join("\n")
    };
    for _ in 0..120_000 {
        let (base, variant) = (lines(&mut next), lines(&mut next));
        assert_same_ops(&base, &variant);
    }
}

#[test]
fn same_domain_page_pairs_diff_to_the_same_ops() {
    let mut world = World::build(&WorldConfig::small(), 5);
    let domains: Vec<String> = world.domains().map(str::to_string).collect();
    let mut pairs = 0;
    for domain in &domains {
        let pages = pages_of(&mut world, domain, 2);
        for base in &pages {
            for variant in &pages {
                assert_same_ops(base, variant);
                pairs += 1;
            }
        }
    }
    assert!(pairs >= 5_000, "{pairs} pairs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn generated_line_sets_diff_to_the_same_ops(
        base in proptest::collection::vec("[ab<]{0,2}", 0..24),
        variant in proptest::collection::vec("[ab<]{0,2}", 0..24),
    ) {
        assert_same_ops(&base.join("\n"), &variant.join("\n"));
    }
}
