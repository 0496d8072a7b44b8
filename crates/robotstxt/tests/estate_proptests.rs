//! Property tests for `PolicyEstate` bookkeeping.
//!
//! The estate keeps counters instead of scanning its slots:
//! `compiled_count()` and `compile_debt()` read a running count. Random
//! sequences of every mutating call check, after each step, that the
//! counters equal a recount over the slots (rebuilt from `sites()` and
//! `is_compiled()`), and that `compiles()` / `cache_hits()` equal a model
//! that tracks which sites hold a compiled artifact.

use std::collections::HashMap;
use std::sync::Arc;

use botscope_robotstxt::{PolicyEstate, RobotsTxt};
use proptest::prelude::*;

const SITES: [&str; 6] = [
    "a.example.edu",
    "b.example.edu",
    "c.example.edu",
    "d.example.edu",
    "e.example.edu",
    "f.example.edu",
];

const TEXTS: [&str; 4] = [
    "User-agent: *\nAllow: /\nDisallow: /secure/*\n",
    "User-agent: *\nDisallow: /\n",
    "User-agent: GPTBot\nDisallow: /news/\n\nUser-agent: *\nAllow: /page-data/*\nDisallow: /\n",
    "",
];

const PATHS: [&str; 4] = ["/", "/news/item-001", "/page-data/x.json", "/secure/login"];

/// The estate's slot state as the model sees it: site → compiled?
type Model = HashMap<&'static str, bool>;

fn assert_bookkeeping(estate: &PolicyEstate, model: &Model, compiles: u64, hits: u64) {
    let recount_sites = estate.sites().count();
    let recount_compiled = estate.sites().filter(|s| estate.is_compiled(s)).count();
    assert_eq!(estate.len(), recount_sites, "len");
    assert_eq!(estate.compiled_count(), recount_compiled, "compiled_count");
    assert_eq!(estate.compile_debt(), recount_sites - recount_compiled, "compile_debt");
    assert_eq!(estate.len(), model.len(), "model sites");
    assert_eq!(recount_compiled, model.values().filter(|&&c| c).count(), "model compiled");
    assert_eq!(estate.compiles(), compiles, "compiles");
    assert_eq!(estate.cache_hits(), hits, "cache_hits");
}

proptest! {
    #[test]
    fn counters_match_a_recount_after_every_step(
        ops in prop::collection::vec((0u8..7, 0usize..6, 0usize..4), 0..80)
    ) {
        let docs: Vec<Arc<RobotsTxt>> =
            TEXTS.iter().map(|t| Arc::new(RobotsTxt::parse(t))).collect();
        let mut estate = PolicyEstate::new();
        let mut model = Model::new();
        let (mut compiles, mut hits) = (0u64, 0u64);
        for (op, site_idx, arg) in ops {
            let site = SITES[site_idx];
            match op {
                // Shared document, by `&str` key.
                0 => {
                    let dropped = estate.insert(site, Arc::clone(&docs[arg]));
                    prop_assert_eq!(dropped, model.insert(site, false) == Some(true));
                }
                // Owned document, by `String` key.
                1 => {
                    let doc = RobotsTxt::parse(TEXTS[arg]);
                    let dropped = estate.insert(site.to_string(), doc);
                    prop_assert_eq!(dropped, model.insert(site, false) == Some(true));
                }
                2 => {
                    let dropped = estate.insert_text(site, TEXTS[arg]);
                    prop_assert_eq!(dropped, model.insert(site, false) == Some(true));
                }
                3 => {
                    let known = estate.invalidate(site);
                    prop_assert_eq!(known, model.contains_key(site));
                    if let Some(compiled) = model.get_mut(site) {
                        *compiled = false;
                    }
                }
                4 => {
                    prop_assert_eq!(estate.remove(site), model.remove(site).is_some());
                }
                // `check` answers like the interpreted matcher.
                5 => {
                    let expected = estate.doc(site).map(|d| d.is_allowed("GPTBot", PATHS[arg]).allow);
                    prop_assert_eq!(estate.check(site, "GPTBot", PATHS[arg]), expected);
                    if let Some(compiled) = model.get_mut(site) {
                        if *compiled { hits += 1 } else { compiles += 1 }
                        *compiled = true;
                    }
                }
                _ => {
                    prop_assert_eq!(estate.compiled(site).is_some(), model.contains_key(site));
                    if let Some(compiled) = model.get_mut(site) {
                        if *compiled { hits += 1 } else { compiles += 1 }
                        *compiled = true;
                    }
                }
            }
            assert_bookkeeping(&estate, &model, compiles, hits);
        }
    }
}
