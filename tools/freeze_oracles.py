"""High-precision oracle computations; results are frozen into the test suite."""
import mpmath as mp

mp.mp.dps = 40

E = mp.e

# --- profile: g_in(r) = c r exp(p(r)), c = sqrt(b), beta = 2 ---
def make_p(b):
    b = mp.mpf(b)
    return [mp.mpf(47)/60, mp.mpf(0), b, -mp.mpf(10)/3*b**mp.mpf('1.5'),
            mp.mpf(15)/4*b**2, -mp.mpf(6)/5*b**mp.mpf('2.5')]

def gin(b, r):
    r = mp.mpf(r)
    p = make_p(b)
    pr = sum(c * r**k for k, c in enumerate(p))
    return mp.sqrt(b) * r * mp.exp(pr)

# 1. bulk inverse: g(r*) sanity and r with g(r)=1.5 for b=1
b = mp.mpf(1)
assert abs(gin(1, 1) - E) < mp.mpf('1e-35')
root = mp.findroot(lambda r: gin(1, r) - mp.mpf('1.5'), mp.mpf('0.6'))
print("g_inverse(1.5) b=1:", mp.nstr(root, 25))
print("  check g(root) =", mp.nstr(gin(1, root), 25))

# 2. transformed value, t-dist d=2 kappa=1, b=1 beta=2, |y|=2 (tail branch)
d, kappa = 2, 1
r = mp.mpf(2)
u = b * r**2
fval = (d + kappa) / mp.mpf(2) * mp.log(1 + mp.exp(2*u))
log_gp = mp.log(2 * b * r) + u
log_g_over_r = u - mp.log(r)
fh = fval - log_gp - (d - 1) * log_g_over_r
print("transformed_value t-dist d2 k1 r=2:", mp.nstr(fh, 25))

# 3. radial gradient factor at r=1 (tail branch, t-dist d2 k1 b1 beta2)
def grad_factor(rr):
    rr = mp.mpf(rr)
    uu = b * rr**2
    fp = (d + kappa) / (1 + mp.exp(-2*uu))   # f'(e^u) e^u
    return fp * 2 * b * rr - 2 * b * d * rr + (d - 2) / rr
g1 = grad_factor(1)
print("grad factor r=1:", mp.nstr(g1, 25))
print("  closed 6e^2/(1+e^2)-4:", mp.nstr(6*E**2/(1+E**2) - 4, 25))

# 4. tula step from y=(1,0), gamma=0.01, noise=0
print("tula step coord0:", mp.nstr(1 - mp.mpf('0.01') * g1, 25))

# 5. planner example: L_h=8, C=4/7, d=4, eps=0.1, H0=4
Lh = mp.mpf(8); C = mp.mpf(4)/7; dd = 4; eps = mp.mpf('0.1'); H0 = mp.mpf(4)
gam = 1 / (2 * Lh**2 * C) * min(mp.mpf(1), eps / (4 * dd))
n = mp.ceil(C / (2 * gam) * mp.log(2 * H0 / eps))
print("planner gamma:", mp.nstr(gam, 25), " = 7/81920 =", mp.nstr(mp.mpf(7)/81920, 25))
print("planner n raw:", mp.nstr(C / (2*gam) * mp.log(2*H0/eps), 25), "-> n =", n)

# 6. Ito drift at x=(e,0), t-dist d2 k1 b1: u=g^{-1}(e)=1, g'(1)=2e, g''(1)=6e
gp, gpp = 2*E, 6*E
fpx = (d + kappa) * E / (1 + E**2)    # f'(|x|) at |x|=e
drift = -gp**2 * fpx + 2*gpp + (d-1)*gp**2/E - (d-1)*E/1
print("ito drift radial @|x|=e:", mp.nstr(drift, 25))
print("  sv radial sqrt2*2e:", mp.nstr(mp.sqrt(2)*2*E, 25), " sv tang sqrt2*e:", mp.nstr(mp.sqrt(2)*E, 25))

# 7. log-det examples
print("logdet d1 b1 r=2:", mp.nstr(mp.log(4) + 4, 25))
print("logdet r->0 d2 b1:", mp.nstr(2 * mp.mpf(47)/60, 25))

# 8. lambda_tangential r=1: same as grad factor (divide by r=1)
# 9. KS 1% asymptotic coefficient
print("ks99:", mp.nstr(mp.sqrt(-mp.log(mp.mpf('0.005'))/2), 25))

# 10. t-dist basics
print("t d2k1 f(1):", mp.nstr(mp.mpf(3)/2*mp.log(2), 25))

# 11. warmup d=2 R=1 sanity: g_in(R)=d R^2, f_h(r) - closed form at r=1.5 (tail)
dw = mp.mpf(2); R = mp.mpf(1)
def gin_w(r):
    r = mp.mpf(r)
    p = -mp.mpf(5)/6 + mp.mpf(3)/2*r**2/R**2 - mp.mpf(2)/3*r**3/R**3
    return dw*R*r*mp.exp(p)
assert abs(gin_w(1) - dw*R**2) < mp.mpf('1e-35')
rr = mp.mpf('1.5')
s = dw*rr**2
fhw_expect = mp.sqrt(1 + dw**2*rr**4) - dw/2*mp.log(dw) - mp.log(2)
fw = mp.sqrt(1+s**2) + dw/2*mp.log(s)
fhw = fw - mp.log(2*dw*rr) - (dw-1)*mp.log(s/rr)
print("warmup fh match:", mp.nstr(fhw - fhw_expect, 5))

# 12. bulk-branch transformed value and radial derivatives, t-dist d2 k1 b1,
#     r = 0.5 (below the knot 1): direct mpmath composition of the quintic
#     bulk profile with f(s) = ((d+kappa)/2) log(1+s^2).
def fh_bulk(r):
    r = mp.mpf(r)
    p = make_p(1)
    pr = sum(c * r**k for k, c in enumerate(p))
    dpr = sum(k * c * r**(k-1) for k, c in enumerate(p) if k >= 1)
    g = r * mp.exp(pr)            # c = sqrt(b) = 1
    gp = (1 + r * dpr) * mp.exp(pr)
    fg = mp.mpf(3)/2 * mp.log(1 + g**2)
    return fg - mp.log(gp) - (mp.log(g) - mp.log(r))

print("fh bulk r=0.5:", mp.nstr(fh_bulk(mp.mpf('0.5')), 25))
print("fh' bulk r=0.5:", mp.nstr(mp.diff(fh_bulk, mp.mpf('0.5')), 25))
print("fh'' bulk r=0.5:", mp.nstr(mp.diff(fh_bulk, mp.mpf('0.5'), 2), 25))

# 13. tail-branch second derivative at r = 2 (t-dist d2 k1 b1), via the
#     log-space composition F(u) = (3/2) log(1 + e^{2u}), u = r^2.
def fh_tail(r):
    r = mp.mpf(r)
    u = r**2
    F = mp.mpf(3)/2 * mp.log(1 + mp.exp(2*u))
    return F - (mp.log(2*r) + u) - (u - mp.log(r))

print("fh tail r=2:", mp.nstr(fh_tail(2), 25))
print("fh' tail r=2:", mp.nstr(mp.diff(fh_tail, mp.mpf(2)), 25))
print("fh'' tail r=2:", mp.nstr(mp.diff(fh_tail, mp.mpf(2), 2), 25))

# 14. radial moments of the t target d=2 kappa=3: density r (1+r^2)^{-5/2}
four = mp.quad(lambda r: r * (1 + r**2)**mp.mpf('-2.5'), [0, mp.inf])
mean = mp.quad(lambda r: r**2 * (1 + r**2)**mp.mpf('-2.5'), [0, mp.inf]) / four
tail5 = mp.quad(lambda r: r * (1 + r**2)**mp.mpf('-2.5'), [5, mp.inf]) / four
print("t d2k3 E|x|:", mp.nstr(mean, 25))
print("t d2k3 P(|x|>5):", mp.nstr(tail5, 25))
print("t d2k3 E|x|^2:", mp.nstr(mp.quad(lambda r: r**3 * (1 + r**2)**mp.mpf('-2.5'), [0, mp.inf]) / four, 25))

# 15. KL of two unscaled-t pairs in one dimension (for the divergence
#     preservation suite): f_a with kappa=2, f_b with kappa=4, d=1.
def t1d(kappa):
    e = mp.mpf(1 + kappa) / 2
    z = mp.quad(lambda x: (1 + x**2)**(-e), [-mp.inf, 0, mp.inf])
    return e, z

ea, za = t1d(2)
eb, zb = t1d(4)
kl = mp.quad(
    lambda x: (1 + x**2)**(-ea) / za * ((eb - ea) * mp.log(1 + x**2) + mp.log(zb) - mp.log(za)),
    [-mp.inf, 0, mp.inf],
)
print("KL t1d k2||k4:", mp.nstr(kl, 25))

# 16. x-side potential of example6 (d = 2, vartheta = 1, so b = 1) on the
#     bulk branch |x| < e: built from phi(u) = u^2, so at u = g^{-1}(|x|),
#     f(|x|) = u^2 + log g'(u) + log(g(u)/u), and f'(|x|) is its u-derivative
#     over g'(u).
def gin_d1(b, r):
    r = mp.mpf(r)
    p = make_p(b)
    pr = sum(c * r**k for k, c in enumerate(p))
    dpr = sum(k * c * r**(k-1) for k, c in enumerate(p) if k >= 1)
    return mp.sqrt(b) * (1 + r * dpr) * mp.exp(pr)

def ex6_bulk_in_u(u):
    return u**2 + mp.log(gin_d1(1, u)) + mp.log(gin(1, u) / u)

for s in ('0.5', '1.5', '2.5'):
    u = mp.findroot(lambda v: gin(1, v) - mp.mpf(s), mp.mpf('0.6'))
    fx = ex6_bulk_in_u(u)
    dfx = mp.diff(ex6_bulk_in_u, u) / gin_d1(1, u)
    print(f"example6 d2 f({s}):", mp.nstr(fx, 25), f" f'({s}):", mp.nstr(dfx, 25))

# 17. g, g', g'', g''' on either side of the knot, at 0.9 knot (bulk) and
#     1.1 knot (tail): ginbeta2 profiles (d = 2) glued to exp(b r^2) at the
#     knot b^(-1/2), and the warm-up profile (d = 2, knot 1) glued to d r^2.
def profile_jets(bulk, tail, knot):
    for side, fn in (("bulk", bulk), ("tail", tail)):
        r = (mp.mpf('0.9') if side == "bulk" else mp.mpf('1.1')) * knot
        yield side, [mp.diff(fn, r, k) for k in range(4)]

for bb in ('0.25', '1', '5'):
    bv = mp.mpf(bb)
    jets = profile_jets(lambda r: gin(bv, r), lambda r: mp.exp(bv * r**2), 1 / mp.sqrt(bv))
    for side, vals in jets:
        print(f"ginbeta2 b={bb} {side}:", ", ".join(mp.nstr(v, 40) for v in vals))
for side, vals in profile_jets(gin_w, lambda r: dw * r**2, R):
    print(f"warmup d=2 {side}:", ", ".join(mp.nstr(v, 40) for v in vals))

# 18. tails of the zoo targets in closed form.  A zoo entry built from
#     phi(r) = (d/2) r^2 + c d log(1 + r^2/2) + C for exp(b r^2), worked
#     backwards at r = sqrt(t/b), t = log |x| >= 1, has the log-argument
#     potential
#       F(t) = d (1 + 1/(2b)) t + (c d + 1 - d/2) log t + c d log(1 + 2b/t)
#              + C + (1 - c d) log 2 + (d/2 - c d) log b,
#     with f(|x|) = F(log |x|), f' = F'/|x|, f'' = (F'' - F')/|x|^2.  The
#     warm-up (phi(r) = sqrt(1 + (d r^2)^2) - (d/2) log d - log 2 for d r^2)
#     has f(s) = sqrt(1 + s^2) + (d/2) log s for s >= d knot^2, and F(t) =
#     f(e^t); its F at t = 1e4 leaves double range.
def zoo_tail_F(d, b, c, C=0):
    d, b, c = mp.mpf(d), mp.mpf(b), mp.mpf(c)
    return lambda t: (d * (1 + 1 / (2 * b)) * t + (c * d + 1 - d / 2) * mp.log(t)
                      + c * d * mp.log(1 + 2 * b / t) + C + (1 - c * d) * mp.log(2)
                      + (d / 2 - c * d) * mp.log(b))

def x_side(F):
    return lambda x: F(mp.log(x))

def warmup_tail_f(d):
    d = mp.mpf(d)
    return lambda s: mp.sqrt(1 + s**2) + d / 2 * mp.log(s)

tails = (("example6 d=2", x_side(zoo_tail_F(2, 1, 0)), zoo_tail_F(2, 1, 0), ('2', '40', '1e4')),
         ("example3 d=4", x_side(zoo_tail_F(4, 2, 1)), zoo_tail_F(4, 2, 1), ('2', '40', '1e4')),
         ("warmup d=2", warmup_tail_f(2), lambda t: warmup_tail_f(2)(mp.exp(t)), ('2', '40')))
for name, f, F, ts in tails:
    for x in ('5', '50', '1e6'):
        vals = [mp.diff(f, mp.mpf(x), k) for k in range(3)]
        print(f"{name} f, f', f'' at {x}:", ", ".join(mp.nstr(v, 25) for v in vals))
    for t in ts:
        vals = [mp.diff(F, mp.mpf(t), k) for k in range(3)]
        print(f"{name} F, F', F'' at {t}:", ", ".join(mp.nstr(v, 25) for v in vals))

# 19. the warm-up phi (d = 2) far out, where d r^2 is beyond 1e154
dw2 = mp.mpf(2)
phi_w = lambda r: mp.sqrt(1 + (dw2 * r**2)**2) - dw2 / 2 * mp.log(dw2) - mp.log(2)
for u in ('1e80', '1e120'):
    uu = mp.mpf(u)
    x = dw2 * uu**2
    # with x = d r^2: phi' = 2 d^2 r^3/sqrt(1 + x^2) and
    # phi'' = 6 d^2 r^2/sqrt(1 + x^2) - 4 d^4 r^6/(1 + x^2)^(3/2)
    vals = (phi_w(uu), 2 * dw2**2 * uu**3 / mp.sqrt(1 + x**2),
            6 * dw2**2 * uu**2 / mp.sqrt(1 + x**2) - 4 * dw2**4 * uu**6 / (1 + x**2)**mp.mpf('1.5'))
    print(f"warmup d=2 phi, phi', phi'' at {u}:", ", ".join(mp.nstr(v, 25) for v in vals))

# 20. KL of criterion 4's pair B on the y side (d = 1): the transformed
#     potentials of example6 and example5 are closed, phi_6(y) = y^2/2 and
#     phi_5(y) = y^2/2 + (1/4) log(1 + y^2/2), so KL(e^-phi_6 || e^-phi_5)
#     needs no transform.  The map preserves KL, so this also pins the x side.
phi6 = lambda y: y**2 / 2
phi5 = lambda y: y**2 / 2 + mp.log(1 + y**2 / 2) / 4
z6 = mp.quad(lambda y: mp.exp(-phi6(y)), [-mp.inf, 0, mp.inf])
z5 = mp.quad(lambda y: mp.exp(-phi5(y)), [-mp.inf, 0, mp.inf])
kl_b = mp.quad(lambda y: mp.exp(-phi6(y)) / z6 * (phi5(y) - phi6(y) + mp.log(z5) - mp.log(z6)),
               [-mp.inf, 0, mp.inf])
print("KL example6 || example5 d=1 (y side):", mp.nstr(kl_b, 30))

# 21. second derivatives on the exponential tail, far out: F'' at t and
#     f'' = (F'' - F')/x^2 at x, from the closed F of section 18, for
#     example3 (d = 4, b = 2, c = 1) and example4 (d = 2, b = 1, c = 1/2).
#     F'' is O(1/t^2) where F is O(t), so mp.diff runs at 60 digits.
with mp.workdps(60):
    for name, F in (("example3 d=4", zoo_tail_F(4, 2, 1)), ("example4 d=2", zoo_tail_F(2, 1, '0.5'))):
        for t in ('2', '10', '100', '1e3', '1e4', '1e5', '1e6', '1e7', '1e8'):
            print(f"{name} F'' at t = {t}:", mp.nstr(mp.diff(F, mp.mpf(t), 2), 25))
        for x in ('10', '1e3', '1e8', '1e32', '1e128'):
            t = mp.log(mp.mpf(x))
            d2f = (mp.diff(F, t, 2) - mp.diff(F, t, 1)) / mp.mpf(x)**2
            print(f"{name} f'' at x = {x}:", mp.nstr(d2f, 25))
