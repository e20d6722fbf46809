/* vpir dashboard: pipeline occupancy from /v1/trace, interval sparklines
   from the observer series, and an A/B config diff over /v1/sweep.
   Plain browser JS, no dependencies. */
"use strict";

const $ = (id) => document.getElementById(id);

// ---------- theme ----------

function applyTheme(t) {
  if (t) document.documentElement.setAttribute("data-theme", t);
  else document.documentElement.removeAttribute("data-theme");
  if (lastTrace) renderTrace(lastTrace);
}
$("themeToggle").addEventListener("click", () => {
  const cur = document.documentElement.getAttribute("data-theme");
  const dark = cur ? cur === "dark"
    : window.matchMedia("(prefers-color-scheme: dark)").matches;
  const next = dark ? "light" : "dark";
  try { localStorage.setItem("vpir-theme", next); } catch (e) { /* private mode */ }
  applyTheme(next);
});
try { applyTheme(localStorage.getItem("vpir-theme")); } catch (e) { /* ok */ }
window.matchMedia("(prefers-color-scheme: dark)").addEventListener("change", () => {
  if (!document.documentElement.getAttribute("data-theme") && lastTrace) renderTrace(lastTrace);
});

function cssVar(name) {
  return getComputedStyle(document.documentElement).getPropertyValue(name).trim();
}

// ---------- controls ----------

async function loadBenches() {
  const res = await fetch("../benchmarks");
  const benches = await res.json();
  const sel = $("bench");
  for (const b of benches) {
    const o = document.createElement("option");
    o.value = b.name;
    o.textContent = b.name;
    o.title = b.desc;
    sel.appendChild(o);
  }
}

function wireTechnique(techSel, schemeSel, brSel, reSel) {
  const update = () => {
    const t = techSel.value;
    const vpLike = t === "vp" || t === "hybrid";
    schemeSel.disabled = !vpLike;
    if (brSel) brSel.disabled = !vpLike;
    if (reSel) reSel.disabled = !vpLike;
  };
  techSel.addEventListener("change", update);
  update();
}
wireTechnique($("technique"), $("scheme"), $("branchres"), $("reexec"));
wireTechnique($("techniqueB"), $("schemeB"), null, null);

function optionsA() {
  const t = $("technique").value;
  const o = { technique: t };
  if (t === "vp" || t === "hybrid") {
    o.scheme = $("scheme").value;
    o.branch_resolution = $("branchres").value;
    o.reexec = $("reexec").value;
  }
  return o;
}
function optionsB() {
  const t = $("techniqueB").value;
  const o = { technique: t };
  if (t === "vp" || t === "hybrid") o.scheme = $("schemeB").value;
  return o;
}
function optName(o) {
  let n = o.technique.toUpperCase();
  if (o.scheme) n += "_" + o.scheme;
  return n;
}

// ---------- trace ----------

let lastTrace = null;

async function runTrace() {
  const btn = $("runTrace"), st = $("traceStatus");
  btn.disabled = true;
  st.classList.remove("err");
  st.textContent = "simulating…";
  try {
    const req = {
      bench: $("bench").value,
      scale: +$("scale").value || 1,
      max_insts: +$("maxinsts").value || 0,
      options: optionsA(),
      window: +$("window").value || 0,
    };
    const t0 = performance.now();
    const res = await fetch("../trace", { method: "POST", body: JSON.stringify(req) });
    if (!res.ok) {
      const e = await res.json().catch(() => ({}));
      throw new Error(e.error || res.status + " " + res.statusText);
    }
    const ms = (performance.now() - t0).toFixed(0);
    const cache = res.headers.get("X-Cache") || "?";
    lastTrace = await res.json();
    renderTrace(lastTrace);
    st.textContent = `${cache.toLowerCase()} · ${ms} ms`;
  } catch (err) {
    st.classList.add("err");
    st.textContent = String(err.message || err);
  } finally {
    btn.disabled = false;
  }
}
$("runTrace").addEventListener("click", runTrace);

function fmt(v, digits) {
  if (v === undefined || v === null || Number.isNaN(v)) return "–";
  if (Number.isInteger(v) && digits === undefined) return v.toLocaleString("en-US");
  return v.toFixed(digits === undefined ? 2 : digits);
}

function renderTrace(resp) {
  renderTiles(resp);
  renderPipeline(resp);
  renderEventTable(resp);
  renderSparklines(resp);
}

// skipDetail describes how much of the run the simulator's quiescence
// skipper fast-forwarded (a simulator-speed observation: results are
// identical either way). Hidden when the run skipped nothing.
function skipDetail(resp) {
  const skipped = resp.cycles_skipped;
  if (!skipped || !resp.stats.cycles) return "";
  return "skipped " + fmt(skipped) + " (" + fmt((100 * skipped) / resp.stats.cycles, 1) + "%)";
}

function renderTiles(resp) {
  const s = resp.stats;
  const tiles = [
    ["IPC", fmt(s.ipc, 3), resp.bench + " · " + s.config],
    ["cycles", fmt(s.cycles), skipDetail(resp)],
    ["committed", fmt(s.committed), "executed " + fmt(s.executed)],
    ["reuse rate", fmt(s.reuse_result_rate, 1) + "%", "addr " + fmt(s.reuse_addr_rate, 1) + "%"],
    ["VP pred / mispred", fmt(s.vp_result_pred, 1) + "% / " + fmt(s.vp_result_mispred, 1) + "%", ""],
    ["squashes", fmt(s.squashes), "spurious " + fmt(s.spurious_squashes)],
  ];
  const el = $("tiles");
  el.innerHTML = "";
  for (const [k, v, d] of tiles) {
    const div = document.createElement("div");
    div.className = "tile";
    div.innerHTML = `<div class="k"></div><div class="v"></div><div class="d"></div>`;
    div.children[0].textContent = k;
    div.children[1].textContent = v;
    div.children[2].textContent = d;
    el.appendChild(div);
  }
  el.hidden = false;
}

// Pipeline occupancy: one row per instruction in the trace window, one
// column per cycle, stage spans in the ordinal blue ramp, marks for
// reuse/commit, and event overlays (squash, VP mispredict) joined by seq.
const CELL_W = 7, CELL_H = 14, LABEL_W = 240, AXIS_H = 20, MAX_COLS = 3600;

let pipeGeom = null; // for the tooltip: {insts, start, end, vmBySeq}

function renderPipeline(resp) {
  const insts = resp.window.insts;
  const section = $("pipeSection");
  section.hidden = false;
  const canvas = $("pipeCanvas");
  const ctx = canvas.getContext("2d");
  if (!insts.length) {
    canvas.width = 400; canvas.height = 40;
    ctx.fillStyle = cssVar("--text-muted");
    ctx.fillText("(no instructions traced)", 10, 24);
    $("pipeMeta").textContent = "";
    pipeGeom = null;
    return;
  }

  const last = (ev) => ev.commit || ev.done || ev.decode;
  let start = insts[0].fetch, end = start;
  for (const ev of insts) {
    if (ev.fetch < start) start = ev.fetch;
    if (last(ev) > end) end = last(ev);
  }
  let clipped = false;
  if (end - start + 1 > MAX_COLS) { end = start + MAX_COLS - 1; clipped = true; }
  const cols = end - start + 1;

  // VP-mispredict events joined to rows by dynamic instruction seq.
  const vmBySeq = new Map();
  for (const e of resp.events.events) {
    if (e.kind === "vp_mispredict") vmBySeq.set(e.seq, e);
  }

  const dpr = window.devicePixelRatio || 1;
  const w = LABEL_W + cols * CELL_W + 10, h = AXIS_H + insts.length * CELL_H + 6;
  canvas.width = Math.round(w * dpr);
  canvas.height = Math.round(h * dpr);
  canvas.style.width = w + "px";
  canvas.style.height = h + "px";
  ctx.setTransform(dpr, 0, 0, dpr, 0, 0);

  ctx.fillStyle = cssVar("--surface-1");
  ctx.fillRect(0, 0, w, h);

  // cycle axis + hairline grid every 10 cycles
  ctx.font = "10px system-ui, sans-serif";
  const step = Math.max(10, Math.ceil(cols / 40 / 10) * 10);
  for (let c = Math.ceil(start / step) * step; c <= end; c += step) {
    const x = LABEL_W + (c - start) * CELL_W;
    ctx.strokeStyle = cssVar("--grid");
    ctx.lineWidth = 1;
    ctx.beginPath();
    ctx.moveTo(x + 0.5, AXIS_H - 4);
    ctx.lineTo(x + 0.5, h - 4);
    ctx.stroke();
    ctx.fillStyle = cssVar("--text-muted");
    ctx.fillText(String(c), x + 2, AXIS_H - 8);
  }

  const colF = cssVar("--stage-f"), colD = cssVar("--stage-d"), colE = cssVar("--stage-e");
  const colR = cssVar("--mark-reuse"), colC = cssVar("--text-primary");
  const colSq = cssVar("--status-critical"), colVm = cssVar("--status-serious");
  const colPred = cssVar("--mark-pred");
  const ink = cssVar("--text-secondary"), muted = cssVar("--text-muted");

  const xOf = (cyc) => LABEL_W + (cyc - start) * CELL_W;
  const span = (y, from, to, color) => {
    const a = Math.max(from, start), b = Math.min(to, end);
    if (b < a) return;
    ctx.fillStyle = color;
    // 2px vertical gap between rows; rounded data-end on the right
    const x = xOf(a), wid = (b - a + 1) * CELL_W - 1;
    ctx.beginPath();
    if (ctx.roundRect) ctx.roundRect(x, y + 2, wid, CELL_H - 4, [0, 3, 3, 0]);
    else ctx.rect(x, y + 2, wid, CELL_H - 4);
    ctx.fill();
  };

  insts.forEach((ev, i) => {
    const y = AXIS_H + i * CELL_H;
    // label gutter: ✗ for squashed rows, pc + disasm in muted ink
    ctx.font = "10px ui-monospace, monospace";
    if (ev.squash) {
      ctx.fillStyle = colSq;
      ctx.fillText("✗", 2, y + CELL_H - 4);
    }
    ctx.fillStyle = ev.squash ? muted : ink;
    const label = ev.pc.slice(2) + "  " + ev.disasm.replace(/\t/g, " ");
    ctx.fillText(label.length > 36 ? label.slice(0, 35) + "…" : label, 12, y + CELL_H - 4);

    const l = last(ev);
    if (ev.decode > ev.fetch) span(y, ev.fetch, ev.decode - 1, colF);
    if (l >= ev.decode) span(y, ev.decode, l, colD);
    if (ev.issue && ev.done >= ev.issue) span(y, ev.issue, ev.done, colE);
    if (ev.reused && ev.decode >= start && ev.decode <= end) {
      ctx.fillStyle = colR;
      ctx.fillRect(xOf(ev.decode), y + 2, CELL_W - 1, CELL_H - 4);
    }
    if (ev.pred && ev.decode >= start && ev.decode <= end) {
      ctx.fillStyle = colPred;
      ctx.beginPath();
      ctx.arc(xOf(ev.decode) + CELL_W / 2, y + CELL_H / 2, 2, 0, 7);
      ctx.fill();
    }
    if (ev.commit && ev.commit >= start && ev.commit <= end) {
      ctx.fillStyle = colC;
      ctx.fillRect(xOf(ev.commit) + 1, y + 1, 3, CELL_H - 2);
    }
    if (ev.squash) {
      // wash the whole row so discarded work reads at a glance
      ctx.fillStyle = colSq + "22";
      ctx.fillRect(LABEL_W, y + 1, cols * CELL_W, CELL_H - 2);
    }
    const vm = vmBySeq.get(ev.seq);
    if (vm && vm.cycle >= start && vm.cycle <= end) {
      // diamond at the verification cycle that caught the bad value
      const cx = xOf(vm.cycle) + CELL_W / 2, cy = y + CELL_H / 2;
      ctx.fillStyle = colVm;
      ctx.beginPath();
      ctx.moveTo(cx, cy - 4); ctx.lineTo(cx + 4, cy); ctx.lineTo(cx, cy + 4); ctx.lineTo(cx - 4, cy);
      ctx.fill();
    }
  });

  const meta = [`${insts.length} insts`, `cycles ${start}–${end}`];
  if (resp.window.overwrote) meta.push(`window dropped ${resp.window.overwrote.toLocaleString("en-US")} earlier insts`);
  if (clipped) meta.push("clipped to " + MAX_COLS + " cycles");
  $("pipeMeta").textContent = meta.join(" · ");
  pipeGeom = { insts, start, end, vmBySeq };
}

// hover tooltip over the pipeline canvas
const tooltip = $("tooltip");
$("pipeCanvas").addEventListener("mousemove", (e) => {
  if (!pipeGeom) return;
  const rect = e.target.getBoundingClientRect();
  const x = e.clientX - rect.left, y = e.clientY - rect.top;
  const row = Math.floor((y - AXIS_H) / CELL_H);
  if (row < 0 || row >= pipeGeom.insts.length) { tooltip.hidden = true; return; }
  const ev = pipeGeom.insts[row];
  const cyc = x > LABEL_W ? pipeGeom.start + Math.floor((x - LABEL_W) / CELL_W) : null;
  const vm = pipeGeom.vmBySeq.get(ev.seq);
  const bits = [];
  bits.push(`<b>#${ev.seq}</b> <code>${ev.pc}</code> <code>${escapeHTML(ev.disasm)}</code>`);
  bits.push(`<span class="t2">fetch ${ev.fetch} · decode ${ev.decode}` +
    (ev.issue ? ` · issue ${ev.issue}` : "") +
    (ev.done ? ` · done ${ev.done}` : "") +
    (ev.commit ? ` · commit ${ev.commit}` : " · never committed") + `</span>`);
  const flags = [];
  if (ev.reused) flags.push("reused at decode");
  if (ev.pred) flags.push("value predicted");
  if (ev.execs) flags.push(ev.execs + "× executed");
  if (ev.squash) flags.push("squashed (wrong path)");
  if (vm) flags.push(`VP mispredict caught at cycle ${vm.cycle}`);
  if (flags.length) bits.push(`<span class="t2">${flags.join(" · ")}</span>`);
  if (cyc !== null && cyc <= pipeGeom.end) bits.push(`<span class="t2">cursor: cycle ${cyc}</span>`);
  tooltip.innerHTML = bits.join("<br>");
  tooltip.hidden = false;
  const tw = tooltip.offsetWidth;
  tooltip.style.left = Math.min(e.clientX + 14, window.innerWidth - tw - 8) + "px";
  tooltip.style.top = (e.clientY + 14) + "px";
});
$("pipeCanvas").addEventListener("mouseleave", () => { tooltip.hidden = true; });

function escapeHTML(s) {
  return s.replace(/[&<>"]/g, (c) => ({ "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;" }[c]));
}

function renderEventTable(resp) {
  const tb = $("eventTable").tBodies[0];
  tb.innerHTML = "";
  for (const e of resp.events.events.slice(-500)) {
    const tr = document.createElement("tr");
    for (const v of [e.cycle, e.kind, e.pc, e.seq, e.a ?? 0, e.b ?? 0, e.note ?? ""]) {
      const td = document.createElement("td");
      td.textContent = String(v);
      tr.appendChild(td);
    }
    tb.appendChild(tr);
  }
}

// ---------- sparklines ----------

function renderSparklines(resp) {
  const { fields, rows, interval } = resp.series;
  const sec = $("sparkSection");
  if (rows.length < 2) { sec.hidden = true; return; }
  sec.hidden = false;
  $("sparkMeta").textContent = `sampled every ${interval.toLocaleString("en-US")} cycles · ${rows.length} samples`;

  const col = (name) => fields.indexOf(name);
  const iCycle = col("cycle"), iCommitted = col("committed"),
    iReuse = col("reused_results"), iPred = col("vp_result_predicted"),
    iCorrect = col("vp_result_correct"), iSquash = col("squashes");

  // The sampler ships cumulative counters; interval behavior is the
  // first difference between consecutive samples.
  const deltas = [];
  for (let i = 1; i < rows.length; i++) {
    const a = rows[i - 1], b = rows[i];
    const dCyc = b[iCycle] - a[iCycle];
    const dCom = b[iCommitted] - a[iCommitted];
    const dMisp = (b[iPred] - a[iPred]) - (b[iCorrect] - a[iCorrect]);
    deltas.push({
      cycle: b[iCycle],
      ipc: dCyc > 0 ? dCom / dCyc : 0,
      reuse: dCom > 0 ? 100 * (b[iReuse] - a[iReuse]) / dCom : 0,
      // Per committed instruction, as the tile's vp_result_mispred.
      vpmisp: dCom > 0 ? 100 * dMisp / dCom : 0,
      squash: dCyc > 0 ? 1000 * (b[iSquash] - a[iSquash]) / dCyc : 0,
    });
  }

  const defs = [
    ["IPC (per interval)", "ipc", 3],
    ["reuse rate % (per interval)", "reuse", 1],
    ["VP mispredict % (per interval)", "vpmisp", 1],
    ["squashes / 1k cycles", "squash", 1],
  ];
  const rowEl = $("sparkRow");
  rowEl.innerHTML = "";
  for (const [title, key, digits] of defs) {
    rowEl.appendChild(makeSpark(title, deltas, key, digits));
  }
}

function makeSpark(title, deltas, key, digits) {
  const div = document.createElement("div");
  div.className = "spark";
  div.innerHTML = `<div class="k"></div><div class="v"></div><canvas height="48"></canvas>`;
  div.children[0].textContent = title;
  const vEl = div.children[1];
  const canvas = div.children[2];
  const final = deltas[deltas.length - 1][key];
  vEl.textContent = fmt(final, digits);

  const draw = (hoverI) => {
    const dpr = window.devicePixelRatio || 1;
    const w = canvas.clientWidth || 240, h = 48;
    canvas.width = w * dpr; canvas.height = h * dpr;
    const ctx = canvas.getContext("2d");
    ctx.setTransform(dpr, 0, 0, dpr, 0, 0);
    ctx.clearRect(0, 0, w, h);
    let min = Infinity, max = -Infinity;
    for (const d of deltas) { min = Math.min(min, d[key]); max = Math.max(max, d[key]); }
    if (min === max) { min -= 0.5; max += 0.5; }
    const X = (i) => 2 + i * (w - 4) / Math.max(1, deltas.length - 1);
    const Y = (v) => 4 + (h - 10) * (1 - (v - min) / (max - min));
    ctx.strokeStyle = cssVar("--baseline");
    ctx.beginPath(); ctx.moveTo(0, h - 1.5); ctx.lineTo(w, h - 1.5); ctx.stroke();
    ctx.strokeStyle = cssVar("--series-a");
    ctx.lineWidth = 2;
    ctx.lineJoin = "round";
    ctx.beginPath();
    deltas.forEach((d, i) => { i ? ctx.lineTo(X(i), Y(d[key])) : ctx.moveTo(X(i), Y(d[key])); });
    ctx.stroke();
    if (hoverI !== undefined) {
      ctx.strokeStyle = cssVar("--grid");
      ctx.beginPath(); ctx.moveTo(X(hoverI) + 0.5, 0); ctx.lineTo(X(hoverI) + 0.5, h); ctx.stroke();
      ctx.fillStyle = cssVar("--series-a");
      ctx.beginPath(); ctx.arc(X(hoverI), Y(deltas[hoverI][key]), 3.5, 0, 7); ctx.fill();
      ctx.strokeStyle = cssVar("--surface-1");
      ctx.lineWidth = 2;
      ctx.beginPath(); ctx.arc(X(hoverI), Y(deltas[hoverI][key]), 3.5, 0, 7); ctx.stroke();
    }
  };
  requestAnimationFrame(() => draw());
  canvas.addEventListener("mousemove", (e) => {
    const rect = canvas.getBoundingClientRect();
    const i = Math.round((e.clientX - rect.left - 2) / Math.max(1, (rect.width - 4)) * (deltas.length - 1));
    const j = Math.max(0, Math.min(deltas.length - 1, i));
    draw(j);
    vEl.textContent = `${fmt(deltas[j][key], digits)} @ cycle ${deltas[j].cycle.toLocaleString("en-US")}`;
  });
  canvas.addEventListener("mouseleave", () => {
    draw();
    vEl.textContent = fmt(final, digits);
  });
  return div;
}

// ---------- config diff over /v1/sweep ----------

async function runDiff() {
  const btn = $("runDiff"), st = $("diffStatus");
  btn.disabled = true;
  st.classList.remove("err");
  st.textContent = "sweeping…";
  try {
    const optA = optionsA(), optB = optionsB();
    const req = {
      benches: [],
      options: [optA, optB],
      scale: +$("scale").value || 1,
      max_insts: +$("maxinsts").value || 0,
    };
    const res = await fetch("../sweep", { method: "POST", body: JSON.stringify(req) });
    if (!res.ok) {
      const e = await res.json().catch(() => ({}));
      throw new Error(e.error || res.status + " " + res.statusText);
    }
    // NDJSON: one line per cell (bench-major, A then B), '#' heartbeats,
    // and a final done line with the failure total.
    const text = await res.text();
    const cells = [];
    let done = null;
    for (const line of text.split("\n")) {
      if (!line || line.startsWith("#")) continue;
      const obj = JSON.parse(line);
      if (obj.done) { done = obj; continue; }
      cells.push(obj);
    }
    renderDiff(cells, optA, optB);
    st.textContent = done && done.failed ? `${done.failed} cell(s) failed` : `${cells.length} cells`;
  } catch (err) {
    st.classList.add("err");
    st.textContent = String(err.message || err);
  } finally {
    btn.disabled = false;
  }
}
$("runDiff").addEventListener("click", runDiff);

function metricOf(stats, key) {
  if (!stats) return null;
  return stats[key] ?? null;
}

function renderDiff(cells, optA, optB) {
  const key = $("diffMetric").value;
  const perBench = new Map();
  for (const c of cells) {
    const slot = c.index % 2 === 0 ? "a" : "b"; // bench-major, options [A, B]
    if (!perBench.has(c.bench)) perBench.set(c.bench, {});
    perBench.get(c.bench)[slot] = c.error ? { error: c.error } : c.stats;
  }
  $("diffHeadA").textContent = "A · " + optName(optA);
  $("diffHeadB").textContent = "B · " + optName(optB);
  let max = 0;
  for (const { a, b } of perBench.values()) {
    max = Math.max(max, metricOf(a, key) || 0, metricOf(b, key) || 0);
  }
  const tb = $("diffTable").tBodies[0];
  tb.innerHTML = "";
  for (const [bench, { a, b }] of perBench) {
    const va = metricOf(a, key), vb = metricOf(b, key);
    const tr = document.createElement("tr");
    const bar = (v, cls) => {
      const td = document.createElement("td");
      td.className = "barCell";
      if (v === null) { td.textContent = "error"; return td; }
      const d = document.createElement("div");
      d.className = "bar " + cls;
      d.style.width = max > 0 ? (100 * v / max).toFixed(1) + "%" : "0";
      td.appendChild(d);
      return td;
    };
    const num = (v) => {
      const td = document.createElement("td");
      td.className = "num";
      td.textContent = v === null ? "–" : fmt(v, key === "squashes" ? 0 : 3);
      return td;
    };
    const name = document.createElement("td");
    name.textContent = bench;
    tr.appendChild(name);
    tr.appendChild(num(va));
    tr.appendChild(bar(va, "a"));
    tr.appendChild(num(vb));
    tr.appendChild(bar(vb, "b"));
    const delta = document.createElement("td");
    delta.className = "delta";
    if (va !== null && vb !== null && va !== 0) {
      const pct = 100 * (vb - va) / Math.abs(va);
      delta.textContent = (pct >= 0 ? "+" : "") + pct.toFixed(1) + "%";
    } else {
      delta.textContent = "–";
    }
    tr.appendChild(delta);
    tb.appendChild(tr);
  }
  $("diffTable").hidden = false;
}
$("diffMetric").addEventListener("change", () => {
  if (!$("diffTable").hidden) runDiff();
});

// ---------- boot ----------

loadBenches().catch((err) => {
  $("traceStatus").classList.add("err");
  $("traceStatus").textContent = "failed to load benchmarks: " + err;
});
