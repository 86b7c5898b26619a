"""Measured decoding work versus the n log n scaling model.

Every butterfly in the tree walk costs one kernel evaluation, so the encoder
spends exactly (n/2) log2(n) of them and a width-L list decoder close to
L * n * log2(n).  The probe measures real counters over a grid of sizes and
fits the constant.
"""

from rmpolar import complexity_probe

report = complexity_probe(m_values=range(4, 10), list_sizes=[1, 2, 4, 8])

print("decoder points (m, n, L, kernel ops, metric updates):")
for m, n, L, kops, sops in report.decoder_points:
    model = report.decoder_fit * L * n * m
    print(f"  m={m:2d} n={n:4d} L={L:2d}: {kops:10.0f} kernel ops "
          f"(model {model:10.0f}), {sops:7.0f} updates")

print()
print(f"decoder fit: a = {report.decoder_fit:.3f} in a * L * n * log2(n)")
worst = max(abs(r) for r in report.decoder_residuals)
print(f"worst relative residual: {worst:.3f}")

print()
print("encoder points (m, n, kernel ops):")
for m, n, kops in report.encoder_points:
    print(f"  m={m:2d} n={n:4d}: {kops:8.0f} (exactly 0.5 * n * log2(n) = {n * m // 2})")
print(f"encoder fit: a = {report.encoder_fit:.3f}, "
      f"worst residual {max(abs(r) for r in report.encoder_residuals):.2g}")
