//! SVG rendering for [`Figure`]s: grouped bar charts with error bars,
//! matching the paper's presentation. Pure-std string generation — no
//! plotting dependency — so `cargo run -p bench --bin all_figures -- --only
//! <id>` drops a ready-to-view `.svg` next to the `.json`.

use crate::report::Figure;
use sgx_sim::profile::{CostCategory, Profile};

/// Canvas geometry (pixels).
const WIDTH: f64 = 860.0;
const HEIGHT: f64 = 420.0;
const MARGIN_LEFT: f64 = 70.0;
const MARGIN_RIGHT: f64 = 20.0;
const MARGIN_TOP: f64 = 48.0;
const MARGIN_BOTTOM: f64 = 96.0;

/// Colorblind-safe categorical palette (Okabe-Ito).
const PALETTE: [&str; 7] =
    ["#0072B2", "#E69F00", "#009E73", "#D55E00", "#CC79A7", "#56B4E9", "#F0E442"];

/// Distinct palette for the profiler's nine cost categories (kept separate
/// from [`PALETTE`] so figure SVGs never change when categories do).
const PROFILE_PALETTE: [&str; 9] = [
    "#0072B2", "#56B4E9", "#E69F00", "#D55E00", "#CC79A7", "#009E73", "#F0E442", "#999999",
    "#000000",
];

/// Round a value up to a "nice" axis maximum (1/2/5 × 10^k). Non-finite
/// input (an all-NaN or overflowed series) degrades to the 1.0 default so
/// the axis math downstream never divides by NaN/Inf.
fn nice_ceil(v: f64) -> f64 {
    if !v.is_finite() || v <= 0.0 {
        return 1.0;
    }
    let mag = 10f64.powf(v.log10().floor());
    for m in [1.0, 2.0, 5.0, 10.0] {
        if v <= m * mag {
            return m * mag;
        }
    }
    10.0 * mag
}

/// Escape XML-special characters in labels.
fn esc(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

impl Figure {
    /// Render the figure as a grouped bar chart in SVG.
    pub fn to_svg(&self) -> String {
        let plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT;
        let plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM;
        let n_x = self.xs.len().max(1) as f64;
        let n_s = self.series.len().max(1) as f64;

        let y_max = nice_ceil(
            self.series
                .iter()
                .flat_map(|s| s.points.iter().flatten())
                .map(|st| st.mean + st.stddev)
                .filter(|v| v.is_finite())
                .fold(0.0, f64::max),
        );
        let y = |v: f64| MARGIN_TOP + plot_h * (1.0 - (v / y_max).clamp(0.0, 1.0));

        let mut svg = String::new();
        put!(
            &mut svg,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">"#
        );
        put!(&mut svg, r#"<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>"#);
        // Title.
        put!(
            &mut svg,
            r#"<text x="{}" y="22" font-size="15" font-weight="bold">{} — {}</text>"#,
            MARGIN_LEFT,
            esc(&self.id),
            esc(&self.title)
        );

        // Horizontal gridlines + y tick labels.
        for tick in 0..=5 {
            let v = y_max * tick as f64 / 5.0;
            let yy = y(v);
            put!(
                &mut svg,
                r##"<line x1="{}" y1="{yy}" x2="{}" y2="{yy}" stroke="#ddd"/>"##,
                MARGIN_LEFT,
                WIDTH - MARGIN_RIGHT
            );
            let label = if y_max >= 100.0 { format!("{v:.0}") } else { format!("{v:.2}") };
            put!(
                &mut svg,
                r#"<text x="{}" y="{}" font-size="11" text-anchor="end">{label}</text>"#,
                MARGIN_LEFT - 6.0,
                yy + 4.0
            );
        }
        // Unit label on the y axis.
        put!(
            &mut svg,
            r#"<text x="14" y="{}" font-size="12" transform="rotate(-90 14 {})" text-anchor="middle">{}</text>"#,
            MARGIN_TOP + plot_h / 2.0,
            MARGIN_TOP + plot_h / 2.0,
            esc(&self.unit)
        );

        // Bars.
        let group_w = plot_w / n_x;
        let bar_w = (group_w * 0.8) / n_s;
        for (si, series) in self.series.iter().enumerate() {
            let color = PALETTE[si % PALETTE.len()];
            for (xi, point) in series.points.iter().enumerate() {
                let Some(st) = point else { continue };
                // A NaN/Inf mean would render as literal "NaN" coordinates
                // and corrupt the SVG; drop the bar instead.
                if !st.mean.is_finite() {
                    continue;
                }
                let x0 = MARGIN_LEFT
                    + group_w * xi as f64
                    + group_w * 0.1
                    + bar_w * si as f64;
                let y0 = y(st.mean);
                let h = (MARGIN_TOP + plot_h - y0).max(0.5);
                put!(
                    &mut svg,
                    r#"<rect x="{x0:.1}" y="{y0:.1}" width="{:.1}" height="{h:.1}" fill="{color}"><title>{}: {:.3}</title></rect>"#,
                    bar_w.max(1.0) - 1.0,
                    esc(&series.label),
                    st.mean
                );
                if st.stddev > 0.0 && st.stddev.is_finite() {
                    let xc = x0 + bar_w / 2.0;
                    let (ylo, yhi) = (y(st.mean - st.stddev), y(st.mean + st.stddev));
                    put!(
                        &mut svg,
                        r#"<line x1="{xc:.1}" y1="{ylo:.1}" x2="{xc:.1}" y2="{yhi:.1}" stroke="black" stroke-width="1"/>"#
                    );
                }
            }
        }

        // X tick labels (rotated when long).
        for (xi, label) in self.xs.iter().enumerate() {
            let xc = MARGIN_LEFT + group_w * (xi as f64 + 0.5);
            let yy = MARGIN_TOP + plot_h + 14.0;
            let rotate = label.len() > 8;
            if rotate {
                put!(
                    &mut svg,
                    r#"<text x="{xc:.1}" y="{yy:.1}" font-size="11" text-anchor="end" transform="rotate(-30 {xc:.1} {yy:.1})">{}</text>"#,
                    esc(label)
                );
            } else {
                put!(
                    &mut svg,
                    r#"<text x="{xc:.1}" y="{yy:.1}" font-size="11" text-anchor="middle">{}</text>"#,
                    esc(label)
                );
            }
        }

        // Legend (bottom row).
        let mut lx = MARGIN_LEFT;
        let ly = HEIGHT - 14.0;
        for (si, series) in self.series.iter().enumerate() {
            let color = PALETTE[si % PALETTE.len()];
            put!(&mut svg, r#"<rect x="{lx:.1}" y="{:.1}" width="11" height="11" fill="{color}"/>"#, ly - 10.0);
            put!(
                &mut svg,
                r#"<text x="{:.1}" y="{ly:.1}" font-size="11">{}</text>"#,
                lx + 15.0,
                esc(&series.label)
            );
            lx += 22.0 + 7.0 * series.label.len() as f64;
        }
        svg.push_str("</svg>");
        svg
    }
}

/// Render a job's cycle-attribution profile as a stacked bar chart: one
/// bar per phase (sorted path order), one colored segment per cost
/// category, stacked bottom-up in [`CostCategory::ALL`] order. Non-finite
/// or non-positive segments are skipped, so a degenerate profile still
/// yields a well-formed SVG.
pub fn profile_svg(job_id: &str, p: &Profile) -> String {
    let plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT;
    let plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM;
    let n_x = p.phases.len().max(1) as f64;
    let y_max = nice_ceil(
        p.phases
            .values()
            .map(|ph| ph.cycles.iter().map(|(_, v)| v).filter(|v| v.is_finite()).sum::<f64>())
            .filter(|v| v.is_finite())
            .fold(0.0, f64::max),
    );
    let y = |v: f64| MARGIN_TOP + plot_h * (1.0 - (v / y_max).clamp(0.0, 1.0));

    let mut svg = String::new();
    put!(
        &mut svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">"#
    );
    put!(&mut svg, r#"<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>"#);
    put!(
        &mut svg,
        r#"<text x="{}" y="22" font-size="15" font-weight="bold">{} — cycle attribution by phase</text>"#,
        MARGIN_LEFT,
        esc(job_id)
    );

    // Horizontal gridlines + y tick labels.
    for tick in 0..=5 {
        let v = y_max * tick as f64 / 5.0;
        let yy = y(v);
        put!(
            &mut svg,
            r##"<line x1="{}" y1="{yy}" x2="{}" y2="{yy}" stroke="#ddd"/>"##,
            MARGIN_LEFT,
            WIDTH - MARGIN_RIGHT
        );
        put!(
            &mut svg,
            r#"<text x="{}" y="{}" font-size="11" text-anchor="end">{v:.0}</text>"#,
            MARGIN_LEFT - 6.0,
            yy + 4.0
        );
    }
    put!(
        &mut svg,
        r#"<text x="14" y="{}" font-size="12" transform="rotate(-90 14 {})" text-anchor="middle">cycles</text>"#,
        MARGIN_TOP + plot_h / 2.0,
        MARGIN_TOP + plot_h / 2.0
    );

    // Stacked bars.
    let group_w = plot_w / n_x;
    let bar_w = group_w * 0.6;
    for (xi, (path, ph)) in p.phases.iter().enumerate() {
        let x0 = MARGIN_LEFT + group_w * (xi as f64 + 0.2);
        let mut acc = 0.0;
        for (cat, v) in ph.cycles.iter() {
            if !v.is_finite() || v <= 0.0 {
                continue;
            }
            let y1 = y(acc);
            let y0 = y(acc + v);
            acc += v;
            put!(
                &mut svg,
                r#"<rect x="{x0:.1}" y="{y0:.1}" width="{:.1}" height="{:.1}" fill="{}"><title>{path} / {}: {v:.1}</title></rect>"#,
                bar_w.max(1.0),
                (y1 - y0).max(0.5),
                PROFILE_PALETTE[cat.index()],
                cat.label()
            );
        }
        // X tick label (phase path, rotated when long).
        let xc = MARGIN_LEFT + group_w * (xi as f64 + 0.5);
        let yy = MARGIN_TOP + plot_h + 14.0;
        if path.len() > 8 {
            put!(
                &mut svg,
                r#"<text x="{xc:.1}" y="{yy:.1}" font-size="11" text-anchor="end" transform="rotate(-30 {xc:.1} {yy:.1})">{}</text>"#,
                esc(path)
            );
        } else {
            put!(
                &mut svg,
                r#"<text x="{xc:.1}" y="{yy:.1}" font-size="11" text-anchor="middle">{}</text>"#,
                esc(path)
            );
        }
    }

    // Legend: all nine categories, fixed order.
    let mut lx = MARGIN_LEFT;
    let ly = HEIGHT - 14.0;
    for cat in CostCategory::ALL {
        put!(
            &mut svg,
            r#"<rect x="{lx:.1}" y="{:.1}" width="11" height="11" fill="{}"/>"#,
            ly - 10.0,
            PROFILE_PALETTE[cat.index()]
        );
        put!(
            &mut svg,
            r#"<text x="{:.1}" y="{ly:.1}" font-size="11">{}</text>"#,
            lx + 15.0,
            cat.label()
        );
        lx += 24.0 + 6.5 * cat.label().len() as f64;
    }
    svg.push_str("</svg>");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Stat;

    fn demo() -> Figure {
        let mut f = Figure::new("figX", "demo <chart>", "size", "GB/s").with_xs(["1 MB", "1 GB"]);
        f.push_series("native", vec![Some(Stat::exact(10.0)), Some(Stat::exact(5.0))]);
        f.push_series(
            "SGX & co",
            vec![Some(Stat { mean: 9.0, stddev: 0.4 }), None],
        );
        f
    }

    #[test]
    fn svg_has_bars_legend_and_escaping() {
        let svg = demo().to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        // Three bars drawn (one point is None) + legend swatches.
        assert_eq!(svg.matches("<rect").count(), 1 + 3 + 2, "background + bars + legend");
        assert!(svg.contains("SGX &amp; co"), "labels are XML-escaped");
        assert!(svg.contains("demo &lt;chart&gt;"));
        // Error bar for the stddev point.
        assert!(svg.contains(r#"stroke="black""#));
    }

    #[test]
    fn nice_ceil_picks_round_maxima() {
        assert_eq!(nice_ceil(0.0), 1.0);
        assert_eq!(nice_ceil(3.2), 5.0);
        assert_eq!(nice_ceil(51.0), 100.0);
        assert_eq!(nice_ceil(100.0), 100.0);
        assert_eq!(nice_ceil(0.07), 0.1);
    }

    #[test]
    fn empty_figure_renders_without_panicking() {
        let f = Figure::new("empty", "nothing", "x", "u");
        let svg = f.to_svg();
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn non_finite_points_never_leak_nan_into_the_svg() {
        // A NaN mean used to poison the y-axis fold *and* render literal
        // "NaN" coordinates for its own bar; an Inf mean survived the fold
        // and then produced inf/inf = NaN bar geometry.
        let mut f = Figure::new("fig_degen", "degenerate", "x", "u").with_xs(["a", "b", "c"]);
        f.push_series(
            "bad",
            vec![
                Some(Stat { mean: f64::NAN, stddev: 0.0 }),
                Some(Stat { mean: f64::INFINITY, stddev: f64::NAN }),
                Some(Stat::exact(4.0)),
            ],
        );
        let svg = f.to_svg();
        assert!(!svg.contains("NaN"), "no NaN coordinates: {svg}");
        assert!(!svg.contains("inf"), "no Inf coordinates");
        // Only the finite point draws a bar: background + 1 bar + 1 legend.
        assert_eq!(svg.matches("<rect").count(), 1 + 1 + 1);
    }

    #[test]
    fn all_equal_and_single_point_series_render_finite_axes() {
        // All-equal values: axis range is [0, nice_ceil(v)] — fine — but a
        // single all-zero series must not divide by a zero y_max.
        let mut flat = Figure::new("figFlat", "flat", "x", "u").with_xs(["a", "b"]);
        flat.push_series("z", vec![Some(Stat::exact(0.0)), Some(Stat::exact(0.0))]);
        let svg = flat.to_svg();
        assert!(!svg.contains("NaN") && svg.contains("</svg>"));

        let mut single = Figure::new("figOne", "one", "x", "u").with_xs(["only"]);
        single.push_series("s", vec![Some(Stat::exact(7.5))]);
        let svg = single.to_svg();
        assert!(!svg.contains("NaN"));
        assert_eq!(svg.matches("<rect").count(), 1 + 1 + 1);
    }

    #[test]
    fn profile_svg_stacks_categories_and_survives_degenerate_rows() {
        let mut p = Profile::default();
        let build = &mut p.phases.entry("build".to_string()).or_default().cycles;
        build.add(CostCategory::Compute, 30.0);
        build.add(CostCategory::Mee, 70.0);
        let probe = &mut p.phases.entry("probe".to_string()).or_default().cycles;
        probe.add(CostCategory::Dram, f64::NAN);
        probe.add(CostCategory::Cache, 10.0);
        let svg = profile_svg("fig06", &p);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
        assert!(!svg.contains("NaN"), "NaN segments are skipped: {svg}");
        // background + 3 finite segments + 9 legend swatches.
        assert_eq!(svg.matches("<rect").count(), 1 + 3 + 9);
        assert!(svg.contains("build / mee: 70.0"));
        // Empty profile still renders.
        let empty = profile_svg("none", &Profile::default());
        assert!(empty.contains("</svg>") && !empty.contains("NaN"));
    }

    #[test]
    fn bars_scale_with_value() {
        let svg = demo().to_svg();
        // The first series' two bars (10.0 then 5.0) share the palette's
        // first color; the taller value must produce the taller rect.
        let heights: Vec<f64> = svg
            .split("<rect ")
            .filter(|frag| frag.contains(PALETTE[0]))
            .map(|frag| {
                let h = frag.split("height=\"").nth(1).expect("rect has height");
                h.split('"').next().unwrap().parse::<f64>().expect("numeric height")
            })
            .collect();
        assert_eq!(heights.len(), 2 + 1, "two bars + one legend swatch");
        assert!(heights[0] > heights[1], "10.0 bar taller than 5.0 bar: {heights:?}");
    }
}
