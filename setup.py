from setuptools import Extension, setup

ext_modules = []
try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        [Extension("cml3._fastcore", ["src/cml3/_fastcore.pyx"])],
        compiler_directives={"language_level": "3"},
    )
except Exception as exc:  # no Cython / no compiler: the pure backend still works
    print(f"cml3: building without the compiled kernel ({exc})")

# package metadata lives in pyproject.toml; the explicit layout here keeps
# legacy setuptools (pre-PEP 621) builds working
setup(
    package_dir={"": "src"},
    packages=["cml3"],
    ext_modules=ext_modules,
)
