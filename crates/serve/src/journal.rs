//! The daemon's on-disk job journal: the recovery half of the tentpole.
//!
//! Layout under the state directory:
//!
//! ```text
//! state/
//!   jobs/<id>/request.ckpt   accepted request (written BEFORE queueing)
//!   jobs/<id>/ckpt/          the job's mmp-ckpt checkpoint ladder
//!   jobs/<id>/report.ckpt    final response line (written on completion)
//! ```
//!
//! Every file is an `mmp-ckpt` envelope (magic, version, FNV header
//! check, CRC payload check, atomic temp→fsync→rename), so a daemon
//! killed mid-write leaves either the previous state or the new one —
//! never garbage the next life would trip over. On restart,
//! [`Journal::scan`] classifies each job directory: a readable `report.ckpt`
//! means the job finished (keep the stored response); a readable
//! `request.ckpt` without one means the job was interrupted and must be
//! re-run — resuming from whatever its `ckpt/` ladder holds, which is
//! what makes recovery bitwise-identical rather than merely eventual.

use crate::error::ServeError;
use crate::protocol::{valid_id, JobRequest};
use mmp_obs::Obs;
use mmp_vfs::Vfs;
use serde::{map_get, Serialize, Value};
use std::fs;
use std::path::{Path, PathBuf};

fn internal(what: &str, path: &Path, detail: impl std::fmt::Display) -> ServeError {
    ServeError::Internal {
        detail: format!("{what} {}: {detail}", path.display()),
    }
}

/// The daemon's state directory handle. Every mutation goes through the
/// injectable [`Vfs`] chokepoint so the disk-fault torture harness can
/// fail any single journal write deterministically.
#[derive(Debug, Clone)]
pub struct Journal {
    root: PathBuf,
    vfs: Vfs,
    obs: Obs,
}

/// One journaled job found by [`Journal::scan`].
#[derive(Debug, Clone)]
pub struct ScannedJob {
    /// The job id (directory name).
    pub id: String,
    /// Admission sequence number (replay order).
    pub seq: u64,
    /// The accepted request.
    pub request: JobRequest,
    /// The stored final response line, when the job finished.
    pub report_line: Option<String>,
}

impl Journal {
    /// Opens (creating if needed) the journal under `root` on the real
    /// filesystem backend.
    pub fn open(root: &Path) -> Result<Self, ServeError> {
        Journal::open_with(root, Vfs::real(), Obs::off())
    }

    /// [`Journal::open`] with an explicit filesystem handle and an obs
    /// registry for the journal's own counters (`ckpt.stale_tmp_removed`,
    /// `ckpt.dir_fsync_failed`).
    pub fn open_with(root: &Path, vfs: Vfs, obs: Obs) -> Result<Self, ServeError> {
        let jobs = root.join("jobs");
        vfs.create_dir_all(&jobs)
            .map_err(|e| internal("create state dir", &jobs, e))?;
        Ok(Journal {
            root: root.to_path_buf(),
            vfs,
            obs,
        })
    }

    /// Counts a dir-fsync failure reported by a write receipt.
    fn note_receipt(&self, receipt: mmp_ckpt::WriteReceipt) {
        if receipt.dir_fsync_failed && self.obs.enabled() {
            self.obs.count("ckpt.dir_fsync_failed", 1);
        }
    }

    /// The directory holding one job's files.
    pub fn job_dir(&self, id: &str) -> PathBuf {
        debug_assert!(valid_id(id), "journal paths require validated ids");
        self.root.join("jobs").join(id)
    }

    /// The job's checkpoint-ladder directory (handed to
    /// `MacroPlacer::with_checkpoints`).
    pub fn ckpt_dir(&self, id: &str) -> PathBuf {
        self.job_dir(id).join("ckpt")
    }

    fn request_path(&self, id: &str) -> PathBuf {
        self.job_dir(id).join("request.ckpt")
    }

    fn report_path(&self, id: &str) -> PathBuf {
        self.job_dir(id).join("report.ckpt")
    }

    /// `true` when the journal already holds a job directory for `id`.
    pub fn contains(&self, id: &str) -> bool {
        self.request_path(id).is_file()
    }

    /// Journals an accepted request (with its admission sequence number)
    /// before the job is queued. Crash-atomic: a daemon killed here
    /// either never accepted the job or will replay it on restart.
    pub fn record_request(&self, id: &str, seq: u64, req: &JobRequest) -> Result<(), ServeError> {
        let dir = self.ckpt_dir(id);
        self.vfs
            .create_dir_all(&dir)
            .map_err(|e| internal("create job dir", &dir, e))?;
        let entry = Value::Map(vec![
            ("id".to_owned(), Value::Str(id.to_owned())),
            ("seq".to_owned(), Value::U64(seq)),
            ("request".to_owned(), req.to_value()),
        ]);
        let path = self.request_path(id);
        let receipt =
            mmp_ckpt::write_with(&self.vfs, &path, crate::protocol::render(&entry).as_bytes())
                .map_err(|e| internal("journal request", &path, e))?;
        self.note_receipt(receipt);
        Ok(())
    }

    /// Stores a job's final response line; its presence is what marks the
    /// job complete to future daemon lives.
    pub fn record_report(&self, id: &str, line: &str) -> Result<(), ServeError> {
        let path = self.report_path(id);
        let receipt = mmp_ckpt::write_with(&self.vfs, &path, line.as_bytes())
            .map_err(|e| internal("journal report", &path, e))?;
        self.note_receipt(receipt);
        Ok(())
    }

    /// Reads back a stored final response line, if the job completed.
    pub fn read_report(&self, id: &str) -> Result<Option<String>, ServeError> {
        let path = self.report_path(id);
        match mmp_ckpt::read_opt_with(&self.vfs, &path) {
            Ok(Some(bytes)) => String::from_utf8(bytes)
                .map(Some)
                .map_err(|e| internal("decode report", &path, e)),
            Ok(None) => Ok(None),
            Err(e) => Err(internal("read report", &path, e)),
        }
    }

    /// Removes a job's directory (admission rollback: the queue was full
    /// after the request was journaled, so the job never existed).
    pub fn forget(&self, id: &str) {
        let _ = self.vfs.remove_dir_all(&self.job_dir(id));
    }

    /// Walks the journal and returns every job in admission (`seq`)
    /// order. Jobs whose `request.ckpt` is unreadable or unparsable are
    /// reported in the second list — a robust daemon quarantines damage
    /// and keeps serving rather than refusing to start.
    ///
    /// The scan also sweeps stale `*.tmp` orphans (a daemon killed
    /// between temp-file write and rename) from each job directory,
    /// counting removals via `ckpt.stale_tmp_removed`.
    pub fn scan(&self) -> Result<(Vec<ScannedJob>, Vec<String>), ServeError> {
        let jobs_dir = self.root.join("jobs");
        let mut jobs = Vec::new();
        let mut damaged = Vec::new();
        let entries =
            fs::read_dir(&jobs_dir).map_err(|e| internal("scan state dir", &jobs_dir, e))?;
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_dir())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        names.sort_unstable(); // deterministic scan order before seq sort
        for id in names {
            if !valid_id(&id) {
                damaged.push(id);
                continue;
            }
            self.sweep_stale_tmps(&self.job_dir(&id));
            match self.scan_one(&id) {
                Ok(job) => jobs.push(job),
                Err(_) => damaged.push(id),
            }
        }
        jobs.sort_by_key(|j| j.seq);
        Ok((jobs, damaged))
    }

    /// Best-effort removal of `*.tmp` orphans directly inside `dir` (the
    /// job's own checkpoint ladder sweeps itself when the flow opens it).
    fn sweep_stale_tmps(&self, dir: &Path) {
        let Ok(names) = self.vfs.read_dir_names(dir) else {
            return;
        };
        let mut removed = 0u64;
        for name in names {
            if name.ends_with(".tmp") && self.vfs.remove_file(&dir.join(&name)).is_ok() {
                removed += 1;
            }
        }
        if removed > 0 && self.obs.enabled() {
            self.obs.count("ckpt.stale_tmp_removed", removed);
        }
    }

    /// Total bytes currently stored under the journal root (the
    /// `serve.journal_bytes` gauge). Read-only metadata walk; errors count
    /// as zero rather than failing a status query.
    pub fn total_bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = fs::read_dir(dir) else {
                return 0;
            };
            let mut total = 0;
            for entry in entries.filter_map(|e| e.ok()) {
                let path = entry.path();
                if path.is_dir() {
                    total += walk(&path);
                } else if let Ok(meta) = entry.metadata() {
                    total += meta.len();
                }
            }
            total
        }
        walk(&self.root)
    }

    fn scan_one(&self, id: &str) -> Result<ScannedJob, ServeError> {
        let path = self.request_path(id);
        let bytes = mmp_ckpt::read_with(&self.vfs, &path)
            .map_err(|e| internal("read request", &path, e))?;
        let text = String::from_utf8(bytes).map_err(|e| internal("decode request", &path, e))?;
        let entry = serde_json::parse_value(&text)
            .map_err(|e| internal("parse request entry", &path, e))?;
        let seq = map_get(&entry, "seq")
            .and_then(Value::as_u64)
            .ok_or_else(|| internal("parse request entry", &path, "missing seq"))?;
        let req_value = map_get(&entry, "request")
            .ok_or_else(|| internal("parse request entry", &path, "missing request"))?;
        let request = JobRequest::parse(&crate::protocol::render(req_value))?;
        // The stored id must match the directory: a renamed job dir is
        // damage, not a different job.
        match map_get(&entry, "id") {
            Some(Value::Str(s)) if s == id => {}
            _ => return Err(internal("parse request entry", &path, "id mismatch")),
        }
        let report_line = self.read_report(id)?;
        Ok(ScannedJob {
            id: id.to_owned(),
            seq,
            request,
            report_line,
        })
    }

    /// Copies a donor `train-done.ckpt` into a job's ladder so the flow
    /// skips training entirely (the daemon's trained-policy cache). The
    /// copy goes through read→write so the destination is a freshly
    /// checksummed atomic envelope, not a raw byte copy of a file another
    /// job may be rewriting.
    pub fn seed_train_done(&self, donor: &Path, id: &str) -> Result<(), ServeError> {
        let payload = mmp_ckpt::read_with(&self.vfs, donor)
            .map_err(|e| internal("read donor checkpoint", donor, e))?;
        let dir = self.ckpt_dir(id);
        self.vfs
            .create_dir_all(&dir)
            .map_err(|e| internal("create job dir", &dir, e))?;
        let dst = dir.join("train-done.ckpt");
        let receipt = mmp_ckpt::write_with(&self.vfs, &dst, &payload)
            .map_err(|e| internal("seed checkpoint", &dst, e))?;
        self.note_receipt(receipt);
        Ok(())
    }

    /// The path a completed job's reusable trained policy lives at.
    pub fn train_done_path(&self, id: &str) -> PathBuf {
        self.ckpt_dir(id).join("train-done.ckpt")
    }
}

/// Renders the stored-report envelope for [`Journal::record_report`]
/// callers that hold a structured response.
pub fn render_line<T: Serialize>(v: &T) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| "null".to_owned())
}

#[cfg(test)]
// why: the damage test plants a deliberately non-envelope file; production
// journal state always goes through the atomic mmp_ckpt writer above.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::protocol::Op;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mmp-serve-journal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn req(id: &str) -> JobRequest {
        JobRequest::parse(&format!(
            r#"{{"op":"submit","id":"{id}","design":{{"spec":[5,0,8,40,70],"seed":1}},"episodes":4}}"#
        ))
        .unwrap()
    }

    #[test]
    fn scan_replays_requests_in_admission_order() {
        let root = tmp("order");
        let j = Journal::open(&root).unwrap();
        // Admission order deliberately disagrees with lexicographic order.
        j.record_request("zz", 1, &req("zz")).unwrap();
        j.record_request("aa", 2, &req("aa")).unwrap();
        j.record_request("mm", 3, &req("mm")).unwrap();
        j.record_report("aa", r#"{"ok":true}"#).unwrap();

        let (jobs, damaged) = j.scan().unwrap();
        assert!(damaged.is_empty());
        let ids: Vec<&str> = jobs.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(ids, ["zz", "aa", "mm"], "seq order, not name order");
        assert!(jobs[0].report_line.is_none(), "zz was interrupted");
        assert_eq!(jobs[1].report_line.as_deref(), Some(r#"{"ok":true}"#));
        assert_eq!(jobs[0].request.op, Op::Submit);
        assert_eq!(jobs[0].request, req("zz"), "request round-trips exactly");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn damaged_entries_are_quarantined_not_fatal() {
        let root = tmp("damage");
        let j = Journal::open(&root).unwrap();
        j.record_request("good", 1, &req("good")).unwrap();
        // A job dir whose request envelope is corrupt.
        let bad = j.job_dir("bad");
        fs::create_dir_all(&bad).unwrap();
        fs::write(bad.join("request.ckpt"), b"not an envelope").unwrap();
        // A job dir with no request at all.
        fs::create_dir_all(j.job_dir("empty")).unwrap();

        let (jobs, mut damaged) = j.scan().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].id, "good");
        damaged.sort();
        assert_eq!(damaged, ["bad", "empty"]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn forget_rolls_back_an_admission() {
        let root = tmp("forget");
        let j = Journal::open(&root).unwrap();
        j.record_request("j1", 1, &req("j1")).unwrap();
        assert!(j.contains("j1"));
        j.forget("j1");
        assert!(!j.contains("j1"));
        let (jobs, damaged) = j.scan().unwrap();
        assert!(jobs.is_empty() && damaged.is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn scan_sweeps_stale_tmp_orphans() {
        let root = tmp("sweep");
        let j = Journal::open(&root).unwrap();
        j.record_request("j1", 1, &req("j1")).unwrap();
        // A torn rename leaves the temp sibling behind.
        fs::write(j.job_dir("j1").join("report.ckpt.tmp"), b"torn").unwrap();
        let (jobs, damaged) = j.scan().unwrap();
        assert_eq!(jobs.len(), 1);
        assert!(damaged.is_empty());
        assert!(
            !j.job_dir("j1").join("report.ckpt.tmp").exists(),
            "scan must sweep the orphan"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn total_bytes_tracks_journal_growth() {
        let root = tmp("bytes");
        let j = Journal::open(&root).unwrap();
        let empty = j.total_bytes();
        j.record_request("j1", 1, &req("j1")).unwrap();
        let with_request = j.total_bytes();
        assert!(with_request > empty);
        j.record_report("j1", r#"{"ok":true}"#).unwrap();
        assert!(j.total_bytes() > with_request);
        j.forget("j1");
        assert_eq!(j.total_bytes(), empty);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_journal_write_fault_is_a_typed_internal_error() {
        use mmp_vfs::{FailPlan, FaultKind, OpKind};
        let root = tmp("fault");
        let vfs = Vfs::with_plan(
            FailPlan::new(FaultKind::PartialWrite(10), 1)
                .on(OpKind::Write)
                .matching("request"),
        );
        let j = Journal::open_with(&root, vfs, Obs::off()).unwrap();
        let err = j.record_request("j1", 1, &req("j1")).unwrap_err();
        assert!(matches!(err, ServeError::Internal { .. }), "{err:?}");
        // The partial temp file never renamed: no request.ckpt, so a
        // rescan quarantines the entry instead of parsing garbage.
        assert!(!j.contains("j1"));
        let j2 = Journal::open(&root).unwrap();
        let (jobs, damaged) = j2.scan().unwrap();
        assert!(jobs.is_empty());
        assert_eq!(damaged, ["j1"]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn seeded_train_done_round_trips_payload_bytes() {
        let root = tmp("seed");
        let j = Journal::open(&root).unwrap();
        let donor = root.join("donor.ckpt");
        mmp_ckpt::write(&donor, b"policy-bytes").unwrap();
        j.record_request("j1", 1, &req("j1")).unwrap();
        j.seed_train_done(&donor, "j1").unwrap();
        let got = mmp_ckpt::read(&j.train_done_path("j1")).unwrap();
        assert_eq!(got, b"policy-bytes");
        let _ = fs::remove_dir_all(&root);
    }
}
