//! Persistence: saving and loading databases as directories of binary
//! pages.
//!
//! Layout: `<dir>/<collection>/<seq>.pxb`, one page per document, plus a
//! `MANIFEST` listing collections and their storage modes.

use crate::db::{Database, StorageError, StorageMode};
use std::fs;
use std::io::Write;
use std::path::Path;

impl Database {
    /// Write every collection under `dir` (created if missing). Existing
    /// contents of `dir` belonging to a previous save are replaced.
    pub fn save_to(&self, dir: &Path) -> Result<(), StorageError> {
        fs::create_dir_all(dir)?;
        let mut manifest = String::new();
        for name in self.collection_names() {
            let coll = self.get(&name).expect("listed collection exists");
            let guard = coll.read();
            let coll_dir = dir.join(&name);
            if coll_dir.exists() {
                fs::remove_dir_all(&coll_dir)?;
            }
            fs::create_dir_all(&coll_dir)?;
            for (i, page) in guard.pages().iter().enumerate() {
                let mut f = fs::File::create(coll_dir.join(format!("{i:08}.pxb")))?;
                f.write_all(page)?;
            }
            let mode = match guard.mode {
                StorageMode::Hot => "hot",
                StorageMode::Cold => "cold",
            };
            manifest.push_str(&format!("{name}\t{mode}\n"));
        }
        fs::write(dir.join("MANIFEST"), manifest)?;
        Ok(())
    }

    /// Load a database previously written by [`Database::save_to`].
    pub fn load_from(dir: &Path) -> Result<Database, StorageError> {
        let manifest = fs::read_to_string(dir.join("MANIFEST"))
            .map_err(|_| StorageError::Corrupt("missing MANIFEST".into()))?;
        let db = Database::new();
        for line in manifest.lines() {
            let Some((name, mode)) = line.split_once('\t') else {
                return Err(StorageError::Corrupt(format!("bad manifest line {line:?}")));
            };
            let mode = match mode {
                "hot" => StorageMode::Hot,
                "cold" => StorageMode::Cold,
                other => {
                    return Err(StorageError::Corrupt(format!("bad storage mode {other:?}")))
                }
            };
            db.create_collection(name, mode)?;
            let coll_dir = dir.join(name);
            let mut entries: Vec<_> = fs::read_dir(&coll_dir)?
                .collect::<Result<Vec<_>, _>>()?
                .into_iter()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "pxb"))
                .collect();
            entries.sort();
            // pages load verbatim: validated once by `store_pages`, kept
            // as they are by cold collections
            for path in entries {
                let page = bytes::Bytes::from(fs::read(&path)?);
                db.store_pages(name, [page]).map_err(|e| match e {
                    StorageError::Corrupt(msg) => {
                        StorageError::Corrupt(format!("{}: {msg}", path.display()))
                    }
                    other => other,
                })?;
            }
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_query::CollectionProvider;
    use partix_xml::parse;
    use proptest::prelude::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "partix-persist-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_db() -> Database {
        let db = Database::new();
        db.create_collection("hotc", StorageMode::Hot).unwrap();
        db.create_collection("coldc", StorageMode::Cold).unwrap();
        for (i, coll) in [(1, "hotc"), (2, "hotc"), (3, "coldc")] {
            let mut d = parse(&format!("<Item><Code>{i}</Code></Item>")).unwrap();
            d.name = Some(format!("d{i}"));
            db.store(coll, d);
        }
        db
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let db = sample_db();
        db.save_to(&dir).unwrap();
        let loaded = Database::load_from(&dir).unwrap();
        assert_eq!(loaded.collection_names(), ["coldc", "hotc"]);
        assert_eq!(loaded.collection_len("hotc").unwrap(), 2);
        assert_eq!(loaded.collection_len("coldc").unwrap(), 1);
        let docs = loaded.collection("hotc").unwrap();
        assert_eq!(docs[0].name.as_deref(), Some("d1"));
        // queries still work (indexes rebuilt on load)
        let out = loaded
            .execute(r#"count(for $i in collection("hotc")/Item where $i/Code = "1" return $i)"#)
            .unwrap();
        assert_eq!(out.items[0], partix_query::Item::Num(1.0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_is_replayable() {
        let dir = tmp_dir("replay");
        let db = sample_db();
        db.save_to(&dir).unwrap();
        db.save_to(&dir).unwrap(); // second save replaces, not duplicates
        let loaded = Database::load_from(&dir).unwrap();
        assert_eq!(loaded.collection_len("hotc").unwrap(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_missing_manifest_fails() {
        let dir = tmp_dir("nomanifest");
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            Database::load_from(&dir),
            Err(StorageError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A PXB2 page listing a label twice: the encoder never writes one,
    /// and read in place it would answer label tests wrongly.
    fn page_listing_a_label_twice() -> Vec<u8> {
        let mut page = partix_xml::binary::encode(&parse("<ab><cd/></ab>").unwrap()).to_vec();
        let at = page.windows(2).position(|w| w == b"cd").unwrap();
        page[at..at + 2].copy_from_slice(b"ab");
        page
    }

    #[test]
    fn page_listing_a_label_twice_is_corrupt_however_it_arrives() {
        let page = page_listing_a_label_twice();
        // ingested as a page, into either kind of collection
        let db = sample_db();
        for coll in ["hotc", "coldc"] {
            assert!(matches!(
                db.store_pages(coll, [page.clone().into()]),
                Err(StorageError::Corrupt(_))
            ));
        }
        // read back from disk
        let dir = tmp_dir("twice");
        db.save_to(&dir).unwrap();
        fs::write(dir.join("coldc").join("00000000.pxb"), &page).unwrap();
        assert!(matches!(Database::load_from(&dir), Err(StorageError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
        // replayed from the log
        let mut record = crate::wal::encode_op(&crate::wal::WriteOp::Put {
            collection: "coldc".into(),
            doc: parse("<ab><cd/></ab>").unwrap(),
        });
        let at = record.windows(2).position(|w| w == b"cd").unwrap();
        record[at..at + 2].copy_from_slice(b"ab");
        assert_eq!(crate::wal::decode_op(&record), None);
    }

    /// A bad page — garbage, or one of the retired PXB1 format — fails the
    /// load with an error naming its file.
    #[test]
    fn load_corrupt_page_fails() {
        let dir = tmp_dir("corrupt");
        let db = sample_db();
        let mut retired = partix_xml::binary::encode(&parse("<Item/>").unwrap()).to_vec();
        retired[..4].copy_from_slice(b"PXB1");
        for page in [b"garbage".to_vec(), retired] {
            db.save_to(&dir).unwrap();
            let file = dir.join("hotc").join("00000000.pxb");
            fs::write(&file, page).unwrap();
            match Database::load_from(&dir) {
                Err(StorageError::Corrupt(msg)) => {
                    assert!(msg.contains(&file.display().to_string()), "{msg}")
                }
                other => panic!("bad page loaded: {:?}", other.map(|_| ())),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            std::env::var("PARTIX_PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
        ))]

        /// Hostile bytes on disk: whatever happens to a saved store's page
        /// files — cut short, bits flipped, overwritten with noise, stamped
        /// with the retired magic — loading gives `Corrupt` or a database
        /// whose every document can be read to the end.
        #[test]
        fn damaged_page_files_load_as_corrupt_or_a_readable_database(
            damage in prop::collection::vec(
                (0usize..3, 0usize..4, any::<usize>(), prop::collection::vec(any::<u8>(), 0..96)),
                1..4,
            ),
        ) {
            let dir = tmp_dir("hostile");
            sample_db().save_to(&dir).unwrap();
            let files = ["hotc/00000000.pxb", "hotc/00000001.pxb", "coldc/00000000.pxb"];
            for (file, how, at, noise) in damage {
                let path = dir.join(files[file]);
                let mut page = fs::read(&path).unwrap();
                match how {
                    0 => page.truncate(at % (page.len() + 1)),
                    1 => {
                        // an earlier cut may have left the page empty
                        let len = page.len().max(1);
                        for (i, bits) in noise.iter().enumerate() {
                            if let Some(byte) = page.get_mut(at.wrapping_add(i * 7) % len) {
                                *byte ^= bits;
                            }
                        }
                    }
                    2 => page = noise,
                    _ => page.splice(..4.min(page.len()), *b"PXB1").for_each(drop),
                }
                fs::write(&path, page).unwrap();
            }
            match Database::load_from(&dir) {
                Err(StorageError::Corrupt(_)) => {}
                Err(other) => panic!("untyped failure: {other}"),
                Ok(db) => {
                    for name in db.collection_names() {
                        for doc in db.collection(&name).unwrap().iter() {
                            let _ = partix_xml::to_string(doc);
                        }
                    }
                }
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}
