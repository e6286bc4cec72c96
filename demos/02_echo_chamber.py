"""Two agents amplifying a shared hunch out of thin air, and the fix.

Both agents hold the same mildly lifted prior on nodes 11 and 13, cannot
move, and receive no visibility observations. Under posterior sharing each
round multiplies the two posteriors together, so the hunch snowballs;
under likelihood sharing an evidence-free round is a no-op.
"""

from beliefshare.simulate import CommMode, bumped_prior, echo_chamber_config, run_trial


def show(mode):
    trace = run_trial(echo_chamber_config(mode)).trace
    mass = trace.object_beliefs[:, 0, [11, 13]].sum(axis=1)
    prior = bumped_prior(15, (11, 13))[[11, 13]].sum()
    print(f"\n{mode.value}")
    print(f"  prior mass on nodes 11+13: {prior:.4f}")
    bar = lambda m: "#" * int(round(m * 40))
    for t, m in enumerate(mass):
        print(f"  t={t}  {m:8.4f}  {bar(m)}")


def main():
    print("no observations, no movement: any belief change is pure echo")
    show(CommMode.POSTERIOR_SHARING)
    show(CommMode.LIKELIHOOD_SHARING)
    print("\nposterior sharing squares the shared prior every round;")
    print("likelihood sharing shares zero evidence and nothing moves.")


if __name__ == "__main__":
    main()
