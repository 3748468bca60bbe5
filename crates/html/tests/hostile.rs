//! A hostile page can neither abort nor stall whoever parses it. A
//! Byzantine PPC's `FetchReply` carries up to a frame (8 MiB) of markup
//! that a Measurement server parses on a 2 MiB reactor-shard stack; the
//! reply quota counts replies, not what one costs. Each test fails
//! against a parser that recursed per level (stack overflow at 80 000
//! nested elements), walked the open-element stack per end tag (40 s for
//! 80 000 unmatched end tags under 80 000 open elements) or looked for an
//! entity's `;` in the whole rest of its run (minutes for a MiB of `&`).

#![expect(
    clippy::disallowed_methods,
    reason = "the test bounds how long a hostile page may take"
)]

use std::time::{Duration, Instant};

use sheriff_html::tagspath::{extract_text_by_path, MatchQuality, PathStep, TagsPath};
use sheriff_html::Document;

const DEPTH: usize = 200_000;

/// Runs `f` on a thread with a quarter-megabyte stack: anything that
/// recurses per nesting level dies there long before `DEPTH`.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no overflow, no panic")
}

fn price_path() -> TagsPath {
    TagsPath {
        steps: vec![PathStep {
            name: "span".into(),
            class: Some("price".into()),
            id_attr: None,
            nth_of_name: 0,
        }],
    }
}

#[test]
fn deep_nesting_costs_no_call_stack() {
    let page = format!("<span class=\"price\">{}EUR9.00", "<b>".repeat(DEPTH));
    let (text, serialized_len, nodes) = on_small_stack(move || {
        let doc = Document::parse(&page);
        // Subtree text (the extractor), the serializer, and a relaxed walk
        // whose path is as deep as the page.
        let (text, quality) = extract_text_by_path(&doc, &price_path()).expect("price found");
        assert_eq!(quality, MatchQuality::Exact);
        let mut deep = price_path();
        deep.steps.extend((0..DEPTH).map(|_| PathStep {
            name: "b".into(),
            class: None,
            id_attr: None,
            nth_of_name: 1, // no second <b> anywhere: exact fails, relaxed walks down
        }));
        let (_, quality) = extract_text_by_path(&doc, &deep).expect("innermost <b>");
        assert_eq!(quality, MatchQuality::Relaxed);
        (text, doc.serialize(doc.root()).len(), doc.len())
    });
    assert_eq!(text, "EUR9.00");
    assert_eq!(nodes, DEPTH + 3);
    assert_eq!(
        serialized_len,
        "<span class=\"price\">EUR9.00</span>".len() + DEPTH * "<b></b>".len()
    );
}

#[test]
fn unmatched_end_tags_under_deep_nesting_do_not_rescan_the_stack() {
    // Cyclic names, so remembering the last miss would not help either.
    let closers: String = (0..DEPTH)
        .map(|i| ["</i>", "</u>", "</em>", "</q>", "</s>"][i % 5])
        .collect();
    let page = format!("{}{closers}<p>after</p>", "<b>".repeat(DEPTH));
    let started = Instant::now();
    let doc = Document::parse(&page);
    let took = started.elapsed();
    assert_eq!(doc.len(), DEPTH + 3, "root, the <b>s, <p> and its text");
    let p = doc.elements_named("p")[0];
    assert_eq!(
        doc.parent(p).map(|b| b.0),
        Some(DEPTH),
        "inside the innermost <b>"
    );
    assert!(took < Duration::from_secs(1), "parse took {took:?}");
}

#[test]
fn many_attributes_on_one_tag_do_not_go_quadratic() {
    let attrs: String = (0..DEPTH)
        .map(|i| format!(" a{}=1", i % (DEPTH / 2)))
        .collect();
    let page = format!("<div{attrs}>x</div>");
    let started = Instant::now();
    let doc = Document::parse(&page);
    let took = started.elapsed();
    let div = doc.elements_named("div")[0];
    assert_eq!(doc.attrs(div).count(), DEPTH / 2, "each name once");
    assert!(took < Duration::from_secs(2), "parse took {took:?}");
}

/// A well-formed page of about `bytes` bytes in the synthetic web's style.
fn well_formed(bytes: usize) -> String {
    let row = "<div class=\"row\"><a class=\"nav-item\" href=\"/x\">item &amp; more</a> \
               <span class=\"price\">EUR9.00</span></div>\n";
    format!(
        "<html><body>\n{}</body></html>\n",
        row.repeat(bytes / row.len())
    )
}

fn best_parse_time(page: &str, tries: usize) -> Duration {
    (0..tries)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(Document::parse(std::hint::black_box(page)));
            started.elapsed()
        })
        .min()
        .expect("tries > 0")
}

#[test]
fn parse_time_grows_linearly_up_to_a_full_frame() {
    // 100 KB to 8 MiB (`MAX_FRAME_LEN`) is 84× the bytes; a parser with a
    // quadratic term would take thousands of times longer. Allow 4× off
    // linear for cache effects and a noisy host.
    let (small, large) = (well_formed(100 << 10), well_formed(8 << 20));
    let ratio = large.len() as f64 / small.len() as f64;
    let t_small = best_parse_time(&small, 5);
    let t_large = best_parse_time(&large, 2);
    let growth = t_large.as_secs_f64() / t_small.as_secs_f64();
    assert!(
        growth < 4.0 * ratio,
        "{} B in {t_small:?}, {} B in {t_large:?}: {growth:.0}× the time for {ratio:.0}× the bytes",
        small.len(),
        large.len()
    );
}

/// `bytes` of `&` in a text run.
fn text_flood(bytes: usize) -> String {
    format!("<p>{}</p>", "&".repeat(bytes))
}

/// `bytes` of `&a` in a quoted attribute value.
fn value_flood(bytes: usize) -> String {
    format!("<p t=\"{}\">x</p>", "&a".repeat(bytes / 2))
}

#[test]
fn entity_floods_parse_in_linear_time() {
    // Every `&` opens an entity reference, and none is ever closed.
    let floods = [
        ("text run", text_flood as fn(usize) -> String),
        ("quoted value", value_flood),
    ];
    for (what, flood) in floods {
        let (small, large) = (flood(128 << 10), flood(4 << 20));
        let doc = Document::parse(&large);
        let p = doc.elements_named("p")[0];
        let decoded = doc.text_content(p).len() + doc.attr(p, "t").map_or(0, str::len);
        assert!(decoded >= 4 << 20, "{what}: the flood is kept as written");
        let ratio = large.len() as f64 / small.len() as f64;
        let t_small = best_parse_time(&small, 5);
        let t_large = best_parse_time(&large, 2);
        let growth = t_large.as_secs_f64() / t_small.as_secs_f64();
        assert!(
            growth < 4.0 * ratio,
            "{what}: {} B in {t_small:?}, {} B in {t_large:?}: {growth:.0}× the time for {ratio:.0}× the bytes",
            small.len(),
            large.len()
        );
    }
}
