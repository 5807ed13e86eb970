//! Reader/writer for a Bookshelf-format subset.
//!
//! The ICCAD04 mixed-size benchmarks the paper evaluates on are distributed
//! in the GSRC Bookshelf format. We support the subset the placement flow
//! needs — `.nodes` (sizes, `terminal` for pads/preplaced), `.pl`
//! (positions, `/FIXED` markers), `.nets` (hyper-edges with pin offsets) —
//! serialised into a single self-contained text stream with section headers,
//! so designs round-trip through one file.
//!
//! Grammar (line oriented, `#` comments):
//!
//! ```text
//! REGION <x> <y> <width> <height>
//! NODES
//! <name> <width> <height> [macro|cell] [hier=<path>]
//! <name> 0 0 terminal <x> <y>
//! PL
//! <name> <cx> <cy> [/FIXED]
//! NETS
//! <netname> <weight> <degree> : (<node> <dx> <dy>)*
//! END
//! ```

use crate::builder::{BuildDesignError, DesignBuilder};
use crate::design::Design;
use crate::ids::NodeRef;
use crate::Placement;
use mmp_geom::{Point, Rect};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

/// Error reading a bookshelf stream.
#[derive(Debug)]
pub enum ReadBookshelfError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation of the failure.
        message: String,
    },
    /// The parsed design failed validation.
    Build(BuildDesignError),
}

impl fmt::Display for ReadBookshelfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadBookshelfError::Io(e) => write!(f, "i/o error reading bookshelf: {e}"),
            ReadBookshelfError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            ReadBookshelfError::Build(e) => write!(f, "invalid design in bookshelf: {e}"),
        }
    }
}

impl Error for ReadBookshelfError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReadBookshelfError::Io(e) => Some(e),
            ReadBookshelfError::Build(e) => Some(e),
            ReadBookshelfError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for ReadBookshelfError {
    fn from(e: std::io::Error) -> Self {
        ReadBookshelfError::Io(e)
    }
}

impl From<BuildDesignError> for ReadBookshelfError {
    fn from(e: BuildDesignError) -> Self {
        ReadBookshelfError::Build(e)
    }
}

/// Writes `design` (and optionally a placement for movable nodes) to `w`.
///
/// A mut reference can be passed as the writer.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write<W: Write>(
    design: &Design,
    placement: Option<&Placement>,
    mut w: W,
) -> std::io::Result<()> {
    let r = design.region();
    writeln!(w, "# mmp bookshelf subset — design {}", design.name())?;
    writeln!(w, "REGION {} {} {} {}", r.x, r.y, r.width, r.height)?;
    writeln!(w, "NODES")?;
    for m in design.macros() {
        if let Some(c) = m.fixed_center {
            writeln!(
                w,
                "{} {} {} fixedmacro {} {} hier={}",
                m.name, m.width, m.height, c.x, c.y, m.hierarchy
            )?;
        } else {
            writeln!(
                w,
                "{} {} {} macro hier={}",
                m.name, m.width, m.height, m.hierarchy
            )?;
        }
    }
    for c in design.cells() {
        writeln!(
            w,
            "{} {} {} cell hier={}",
            c.name, c.width, c.height, c.hierarchy
        )?;
    }
    for p in design.pads() {
        writeln!(
            w,
            "{} 0 0 terminal {} {}",
            p.name, p.position.x, p.position.y
        )?;
    }
    if let Some(pl) = placement {
        writeln!(w, "PL")?;
        for (i, m) in design.macros().iter().enumerate() {
            let c = pl.macro_center(crate::MacroId::from_index(i));
            let fixed = if m.is_preplaced() { " /FIXED" } else { "" };
            writeln!(w, "{} {} {}{}", m.name, c.x, c.y, fixed)?;
        }
        for (i, cell) in design.cells().iter().enumerate() {
            let c = pl.cell_center(crate::CellId::from_index(i));
            writeln!(w, "{} {} {}", cell.name, c.x, c.y)?;
        }
    }
    writeln!(w, "NETS")?;
    for n in design.nets() {
        write!(w, "{} {} {} :", n.name, n.weight, n.pins.len())?;
        for pin in &n.pins {
            let name = match pin.node {
                NodeRef::Macro(id) => &design.macro_(id).name,
                NodeRef::Cell(id) => &design.cell(id).name,
                NodeRef::Pad(id) => &design.pad(id).name,
            };
            write!(w, " {} {} {}", name, pin.offset.x, pin.offset.y)?;
        }
        writeln!(w)?;
    }
    writeln!(w, "END")?;
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Prelude,
    Nodes,
    Pl,
    Nets,
    Done,
}

/// Reads a design (and the placement, if a `PL` section is present) written
/// by [`write()`]. A mut reference can be passed as the reader.
///
/// # Errors
///
/// Returns [`ReadBookshelfError`] on I/O failures, malformed lines, unknown
/// node references or designs that fail validation.
pub fn read<R: Read>(name: &str, r: R) -> Result<(Design, Option<Placement>), ReadBookshelfError> {
    let reader = BufReader::new(r);
    let mut builder: Option<DesignBuilder> = None;
    let mut section = Section::Prelude;
    // mmp-lint: allow(hash-order) why: name→node lookup for pin resolution, only probed, never iterated
    let mut node_refs: HashMap<String, NodeRef> = HashMap::new();
    let mut pl_lines: Vec<(String, Point)> = Vec::new();
    let mut saw_pl = false;

    let parse_err = |line: usize, message: &str| ReadBookshelfError::Parse {
        line,
        message: message.to_owned(),
    };

    for (lineno, line) in reader.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line {
            "NODES" => {
                section = Section::Nodes;
                continue;
            }
            "PL" => {
                section = Section::Pl;
                saw_pl = true;
                continue;
            }
            "NETS" => {
                section = Section::Nets;
                continue;
            }
            "END" => {
                section = Section::Done;
                continue;
            }
            _ => {}
        }
        match section {
            Section::Prelude => {
                let toks: Vec<&str> = line.split_whitespace().collect();
                if toks.len() != 5 || toks[0] != "REGION" {
                    return Err(parse_err(lineno, "expected REGION x y w h"));
                }
                let vals: Result<Vec<f64>, _> = toks[1..].iter().map(|t| t.parse()).collect();
                let vals = vals.map_err(|_| parse_err(lineno, "bad REGION number"))?;
                builder = Some(DesignBuilder::new(
                    name,
                    Rect::new(vals[0], vals[1], vals[2], vals[3]),
                ));
            }
            Section::Nodes => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| parse_err(lineno, "NODES before REGION"))?;
                let toks: Vec<&str> = line.split_whitespace().collect();
                if toks.len() < 4 {
                    return Err(parse_err(lineno, "node line needs name w h kind"));
                }
                let nm = toks[0].to_owned();
                let w: f64 = toks[1]
                    .parse()
                    .map_err(|_| parse_err(lineno, "bad node width"))?;
                let h: f64 = toks[2]
                    .parse()
                    .map_err(|_| parse_err(lineno, "bad node height"))?;
                let hier = toks
                    .iter()
                    .find_map(|t| t.strip_prefix("hier="))
                    .unwrap_or("")
                    .to_owned();
                let node: NodeRef = match toks[3] {
                    "macro" => b.add_macro(nm.clone(), w, h, hier).into(),
                    "cell" => b.add_cell(nm.clone(), w, h, hier).into(),
                    "fixedmacro" => {
                        if toks.len() < 6 {
                            return Err(parse_err(lineno, "fixedmacro needs x y"));
                        }
                        let x: f64 = toks[4]
                            .parse()
                            .map_err(|_| parse_err(lineno, "bad fixedmacro x"))?;
                        let y: f64 = toks[5]
                            .parse()
                            .map_err(|_| parse_err(lineno, "bad fixedmacro y"))?;
                        b.add_preplaced_macro(nm.clone(), w, h, hier, Point::new(x, y))
                            .into()
                    }
                    "terminal" => {
                        if toks.len() < 6 {
                            return Err(parse_err(lineno, "terminal needs x y"));
                        }
                        let x: f64 = toks[4]
                            .parse()
                            .map_err(|_| parse_err(lineno, "bad terminal x"))?;
                        let y: f64 = toks[5]
                            .parse()
                            .map_err(|_| parse_err(lineno, "bad terminal y"))?;
                        b.add_pad(nm.clone(), Point::new(x, y)).into()
                    }
                    other => return Err(parse_err(lineno, &format!("unknown node kind {other}"))),
                };
                node_refs.insert(nm, node);
            }
            Section::Pl => {
                let toks: Vec<&str> = line.split_whitespace().collect();
                if toks.len() < 3 {
                    return Err(parse_err(lineno, "pl line needs name x y"));
                }
                let x: f64 = toks[1].parse().map_err(|_| parse_err(lineno, "bad pl x"))?;
                let y: f64 = toks[2].parse().map_err(|_| parse_err(lineno, "bad pl y"))?;
                pl_lines.push((toks[0].to_owned(), Point::new(x, y)));
            }
            Section::Nets => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| parse_err(lineno, "NETS before REGION"))?;
                let (head, tail) = line
                    .split_once(':')
                    .ok_or_else(|| parse_err(lineno, "net line needs ':'"))?;
                let htoks: Vec<&str> = head.split_whitespace().collect();
                if htoks.len() != 3 {
                    return Err(parse_err(lineno, "net head needs name weight degree"));
                }
                let weight: f64 = htoks[1]
                    .parse()
                    .map_err(|_| parse_err(lineno, "bad net weight"))?;
                let degree: usize = htoks[2]
                    .parse()
                    .map_err(|_| parse_err(lineno, "bad net degree"))?;
                let ttoks: Vec<&str> = tail.split_whitespace().collect();
                // A hostile degree must not wrap the product or size the
                // allocation: only the tokens actually present do.
                if degree.checked_mul(3) != Some(ttoks.len()) {
                    return Err(parse_err(lineno, "net pin count mismatch"));
                }
                let mut pins = Vec::with_capacity(ttoks.len() / 3);
                for chunk in ttoks.chunks(3) {
                    let node = *node_refs
                        .get(chunk[0])
                        .ok_or_else(|| parse_err(lineno, &format!("unknown node {}", chunk[0])))?;
                    let dx: f64 = chunk[1]
                        .parse()
                        .map_err(|_| parse_err(lineno, "bad pin dx"))?;
                    let dy: f64 = chunk[2]
                        .parse()
                        .map_err(|_| parse_err(lineno, "bad pin dy"))?;
                    pins.push((node, Point::new(dx, dy)));
                }
                b.add_net(htoks[0], pins, weight)?;
            }
            Section::Done => {
                return Err(parse_err(lineno, "content after END"));
            }
        }
    }

    let design = builder
        .ok_or_else(|| parse_err(0, "missing REGION header"))?
        .build()?;
    let placement = if saw_pl {
        let mut pl = Placement::initial(&design);
        for (nm, p) in pl_lines {
            match node_refs.get(&nm) {
                Some(NodeRef::Macro(id)) => pl.set_macro_center(*id, p),
                Some(NodeRef::Cell(id)) => pl.set_cell_center(*id, p),
                Some(NodeRef::Pad(_)) | None => {}
            }
        }
        Some(pl)
    } else {
        None
    };
    Ok((design, placement))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::SyntheticSpec;
    use crate::MacroId;

    #[test]
    fn roundtrip_preserves_design_and_placement() {
        let spec = SyntheticSpec::small("rt", 6, 2, 8, 40, 60, true, 7);
        let design = spec.generate();
        let mut pl = Placement::initial(&design);
        pl.set_macro_center(MacroId(0), Point::new(12.5, 13.5));
        let mut buf = Vec::new();
        write(&design, Some(&pl), &mut buf).unwrap();
        let (d2, pl2) = read("rt", buf.as_slice()).unwrap();
        let pl2 = pl2.expect("placement present");
        assert_eq!(design.macros().len(), d2.macros().len());
        assert_eq!(design.cells().len(), d2.cells().len());
        assert_eq!(design.pads().len(), d2.pads().len());
        assert_eq!(design.nets().len(), d2.nets().len());
        assert_eq!(pl2.macro_center(MacroId(0)), Point::new(12.5, 13.5));
        // HPWL must be identical under the same coordinates.
        assert!((pl.hpwl(&design) - pl2.hpwl(&d2)).abs() < 1e-9);
    }

    #[test]
    fn missing_region_is_an_error() {
        let err = read("x", "NODES\nEND\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ReadBookshelfError::Parse { .. }));
    }

    #[test]
    fn bad_number_reports_line() {
        let src = "REGION 0 0 ten 10\n";
        match read("x", src.as_bytes()).unwrap_err() {
            ReadBookshelfError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unknown_net_node_is_an_error() {
        let src =
            "REGION 0 0 10 10\nNODES\nm 1 1 macro hier=\nNETS\nn 1 2 : m 0 0 ghost 0 0\nEND\n";
        let err = read("x", src.as_bytes()).unwrap_err();
        match err {
            ReadBookshelfError::Parse { message, .. } => {
                assert!(message.contains("ghost"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn pin_count_mismatch_is_an_error() {
        let src = "REGION 0 0 10 10\nNODES\nm 1 1 macro hier=\nNETS\nn 1 2 : m 0 0\nEND\n";
        assert!(read("x", src.as_bytes()).is_err());
    }

    #[test]
    fn hostile_net_degree_is_a_typed_error() {
        // `usize::MAX / 3 + 1` times 3 wraps to 2 in a release build, which
        // matches the two pin tokens below; the reader must still answer
        // with a parse error, not a capacity-overflow panic.
        for degree in [usize::MAX / 3 + 1, usize::MAX] {
            let src = format!(
                "REGION 0 0 10 10\nNODES\nm 1 1 macro hier=\nNETS\nn 1 {degree} : m 0\nEND\n"
            );
            match read("x", src.as_bytes()).unwrap_err() {
                ReadBookshelfError::Parse { line, message } => {
                    assert_eq!(line, 5);
                    assert!(message.contains("pin count"), "{message}");
                }
                other => panic!("degree {degree}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn content_after_end_is_rejected() {
        let src = "REGION 0 0 10 10\nEND\nstray\n";
        assert!(read("x", src.as_bytes()).is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let src = "# hello\n\nREGION 0 0 10 10\n# more\nEND\n";
        let (d, pl) = read("x", src.as_bytes()).unwrap();
        assert_eq!(d.macros().len(), 0);
        assert!(pl.is_none());
    }
}
