//! The serve daemon's arena-cache key streams the canonical IR dump into
//! FNV-1a instead of building the dump string. The key must stay
//! bit-identical to hashing the built dump, or cache hits, evictions and
//! `cached` flags would change.

mod common;

use fegen::core::serve::engine::arena_key;
use fegen::core::serve::wire::WireNode;
use fegen::core::stable_hash;

#[test]
fn streamed_arena_key_equals_hash_of_built_dump() {
    let loops = common::suite_loops(&fegen::suite::SuiteConfig::quick());
    assert!(
        loops.len() > 1000,
        "quick suite exported only {} loops",
        loops.len()
    );
    for ir in &loops {
        // The daemon keys the tree it rebuilt from the wire.
        let served = WireNode::from_ir(ir).to_ir();
        assert_eq!(arena_key(&served), stable_hash(served.dump().as_bytes()));
        assert_eq!(arena_key(ir), stable_hash(ir.dump().as_bytes()));
    }
}
