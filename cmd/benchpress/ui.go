package main

// indexHTML is the single-file browser front end: a canvas drawing the
// obstacle course scrolling right-to-left with the character's height bound
// to the measured throughput, plus live stats from the control API. It is a
// thin view - all game logic runs server-side in internal/game.
const indexHTML = `<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>BenchPress</title>
<style>
  body { background: #10141a; color: #dde; font-family: monospace; margin: 20px; }
  canvas { background: #182030; border: 1px solid #334; display: block; margin: 12px 0; }
  #stats { white-space: pre; }
  button { font-family: monospace; background: #2a3a55; color: #dde; border: 1px solid #456;
           padding: 6px 14px; margin-right: 8px; cursor: pointer; }
</style>
</head>
<body>
<h2>BenchPress</h2>
<div>
  <button onclick="jump()">JUMP (space)</button>
  <button onclick="mixture('readonly')">read-only mix</button>
  <button onclick="mixture('writeheavy')">super-writes mix</button>
  <button onclick="mixture('default')">default mix</button>
</div>
<canvas id="c" width="960" height="420"></canvas>
<div id="stats">connecting...</div>
<script>
const canvas = document.getElementById('c');
const ctx = canvas.getContext('2d');
let course = [], ticks = [], maxY = 1;

function jump() { fetch('/game/jump', {method:'POST', body: JSON.stringify({delta: 150})}); }

// The v1 API addresses workloads by name; resolve it once (poll retries
// until it succeeds), then follow the live SSE window stream for
// per-window percentiles.
let wl = null, lastWin = null;
async function resolveWorkload() {
  const ls = await (await fetch('/api/v1/workloads')).json();
  if (!ls.workloads || !ls.workloads.length) throw 'no workload registered';
  wl = ls.workloads[0].name;
  const es = new EventSource('/api/v1/workloads/' + wl + '/stream');
  es.addEventListener('window', e => { lastWin = JSON.parse(e.data); });
}

function mixture(preset) {
  if (!wl) return;
  fetch('/api/v1/workloads/' + wl + '/mixture', {method:'POST',
    headers: {'Content-Type': 'application/json'}, body: JSON.stringify({preset: preset})});
}
document.addEventListener('keydown', e => { if (e.code === 'Space') { e.preventDefault(); jump(); } });

function yOf(v) { return canvas.height - 20 - (v / maxY) * (canvas.height - 60); }

function draw() {
  ctx.clearRect(0, 0, canvas.width, canvas.height);
  if (course.length === 0) return;
  maxY = 1;
  for (const p of course) if (p.Obstacle && p.Hi > 0) maxY = Math.max(maxY, p.Hi * 1.2);
  const now = ticks.length;
  const span = 80; // visible ticks
  const x0 = now - 20; // character fixed near the left
  const w = canvas.width / span;
  for (let i = 0; i < span; i++) {
    const idx = x0 + i;
    if (idx < 0 || idx >= course.length) continue;
    const p = course[idx], x = i * w;
    if (p.Obstacle && p.Hi > 0) {
      ctx.fillStyle = p.AutoPil ? '#553' : '#2d4';
      ctx.globalAlpha = 0.25;
      ctx.fillRect(x, yOf(p.Hi), w + 1, yOf(p.Lo) - yOf(p.Hi));
      ctx.globalAlpha = 1.0;
      ctx.fillStyle = p.AutoPil ? '#aa5' : '#484';
      ctx.fillRect(x, 0, w + 1, yOf(p.Hi));
      ctx.fillRect(x, yOf(Math.max(p.Lo, 0)), w + 1, canvas.height);
    }
  }
  // Measured-throughput trail and character.
  ctx.strokeStyle = '#6cf'; ctx.lineWidth = 2; ctx.beginPath();
  for (let i = Math.max(0, now - 20); i < now; i++) {
    const x = (i - x0) * w, y = yOf(ticks[i].Measured);
    if (i === Math.max(0, now - 20)) ctx.moveTo(x, y); else ctx.lineTo(x, y);
  }
  ctx.stroke();
  if (now > 0) {
    const last = ticks[now - 1];
    ctx.fillStyle = '#fc3';
    ctx.beginPath();
    ctx.arc(20 * w, yOf(last.Measured), 7, 0, 2 * Math.PI);
    ctx.fill();
    ctx.strokeStyle = '#f66';
    ctx.setLineDash([4, 4]);
    ctx.beginPath();
    ctx.moveTo(0, yOf(last.Target)); ctx.lineTo(canvas.width, yOf(last.Target));
    ctx.stroke();
    ctx.setLineDash([]);
  }
}

async function poll() {
  try {
    const gs = await (await fetch('/game/state')).json();
    course = gs.course || []; ticks = gs.ticks || [];
    if (!wl) await resolveWorkload();
    const st = await (await fetch('/api/v1/workloads/' + wl)).json();
    let txt = 'DBMS ' + st.dbms + '  benchmark ' + st.benchmark +
      '\nmeasured ' + st.tps.toFixed(0) + ' tps   target ' + gs.target.toFixed(0) +
      ' tps   avg latency ' + st.avg_latency_ms.toFixed(2) + ' ms' +
      '\ncommitted ' + st.committed + '  aborted ' + st.aborted + '  errors ' + st.errors;
    if (st.p99_ms !== undefined) {
      txt += '\nlatency p50 ' + st.p50_ms.toFixed(2) + '  p95 ' + st.p95_ms.toFixed(2) +
        '  p99 ' + st.p99_ms.toFixed(2) + ' ms (run)';
    }
    if (lastWin) {
      txt += '\nwindow ' + lastWin.second + ': ' + lastWin.tps.toFixed(0) + ' tps  p95 ' +
        lastWin.p95_ms.toFixed(2) + '  p99 ' + lastWin.p99_ms.toFixed(2) + ' ms';
    }
    if (st.resources && st.resources.host_stats) {
      txt += '\ncpu ' + st.resources.cpu_user_pct.toFixed(0) + '%us ' +
        st.resources.cpu_system_pct.toFixed(0) + '%sy   mem ' +
        st.resources.mem_used_pct.toFixed(0) + '%';
    }
    document.getElementById('stats').textContent = txt;
    draw();
  } catch (e) {
    document.getElementById('stats').textContent = 'poll error: ' + e;
  }
}
setInterval(poll, 250);
</script>
</body>
</html>
`
